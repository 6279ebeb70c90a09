package dfs

import (
	"errors"
	"testing"
)

func TestKillNodeSurvivesWithReplicas(t *testing.T) {
	fs := testFS(t, 5, WithReplication(3), WithBlockSize(16))
	data := []byte("a,b,c\nd,e,f\ng,h,i\nj,k,l\n")
	if err := fs.Write("f", data); err != nil {
		t.Fatal(err)
	}
	fs.KillNode(0)
	splits, err := fs.Splits([]string{"f"}, true)
	if err != nil {
		t.Fatalf("one dead node with 3 replicas: %v", err)
	}
	for _, s := range splits {
		for _, n := range s.PreferredNodes {
			if n == 0 {
				t.Fatal("dead node still listed as replica")
			}
		}
	}
	// Content is intact through the surviving replicas.
	if string(readAll(t, fs, "f")) != string(data) {
		t.Error("data corrupted after node loss")
	}
}

func TestAllReplicasLost(t *testing.T) {
	fs := testFS(t, 3, WithReplication(2))
	fs.Write("f", []byte("x\n"))
	fs.KillNode(0)
	fs.KillNode(1)
	fs.KillNode(2)
	_, err := fs.Splits([]string{"f"}, true)
	if !errors.Is(err, ErrBlockLost) {
		t.Errorf("err = %v, want ErrBlockLost", err)
	}
	// Non-splittable path hits the same error.
	_, err = fs.Splits([]string{"f"}, false)
	if !errors.Is(err, ErrBlockLost) {
		t.Errorf("non-splittable err = %v", err)
	}
	// Revival restores access.
	fs.ReviveNode(1)
	if _, err := fs.Splits([]string{"f"}, true); err != nil {
		t.Errorf("after revive: %v", err)
	}
}

// TestWriteAfterKillAvoidsDeadNodes: a file written after a node died
// never depends on it, so it stays readable on a cluster whose other
// nodes are healthy; with no node left alive the write is refused.
func TestWriteAfterKillAvoidsDeadNodes(t *testing.T) {
	fs := testFS(t, 4, WithReplication(1), WithBlockSize(4))
	fs.KillNode(2)
	data := []byte("a,b,c\nd,e,f\ng,h,i\nj,k,l\nm,n,o\np,q,r\n")
	if err := fs.Write("f", data); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits([]string{"f"}, true)
	if err != nil {
		t.Fatalf("written after the kill, read on a healthy cluster: %v", err)
	}
	if len(splits) < 4 {
		t.Fatalf("%d splits, want the round-robin to pass every node", len(splits))
	}
	for i, s := range splits {
		if len(s.PreferredNodes) != 1 || s.PreferredNodes[0] == 2 {
			t.Errorf("block %d placed on %v", i, s.PreferredNodes)
		}
	}
	if string(readAll(t, fs, "f")) != string(data) {
		t.Error("data corrupted")
	}
	// Replication is best effort over the survivors.
	two := testFS(t, 3, WithReplication(3))
	two.KillNode(0)
	if err := two.Write("g", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if sp, err := two.Splits([]string{"g"}, true); err != nil || len(sp[0].PreferredNodes) != 2 {
		t.Errorf("two survivors: replicas %v, %v", sp, err)
	}
	two.KillNode(1)
	two.KillNode(2)
	if err := two.Write("h", []byte("x\n")); err == nil {
		t.Error("write with every node dead: want error")
	}
}
