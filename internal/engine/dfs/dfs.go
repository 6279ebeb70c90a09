// Package dfs is the benchmark's HDFS analogue: files split into
// fixed-size blocks, each block replicated on a subset of the simulated
// cluster's nodes. The distributed engines read inputs through splits,
// which carry the replica locations so the scheduler can place tasks
// data-locally — and so the paper's third data format can be modelled
// faithfully by marking files non-splittable (isSplitable() == false,
// §5.4.2), forcing each file to be "processed in a self-contained manner
// by a single mapper".
package dfs

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"github.com/smartmeter/smartbench/internal/distsim"
)

// DefaultBlockSize mirrors HDFS's classic 64 MiB default, scaled down so
// benchmark-sized files still produce multiple blocks.
const DefaultBlockSize = 1 << 20 // 1 MiB

// DefaultReplication is the HDFS default replica count, clamped to the
// cluster's node count.
const DefaultReplication = 3

// FS is an in-memory distributed file system over a simulated cluster.
// It is safe for concurrent use.
type FS struct {
	mu        sync.RWMutex
	cluster   *distsim.Cluster
	blockSize int
	files     map[string]*file
	nextNode  int
}

type file struct {
	blocks []Block
}

// Block is one stored chunk of a file.
type Block struct {
	// Index is the block's position within its file.
	Index int
	// Data is the block's contents.
	Data []byte
	// Nodes lists the nodes holding replicas.
	Nodes []int
}

// Option configures the file system.
type Option func(*FS)

// WithBlockSize overrides the block size.
func WithBlockSize(n int) Option { return func(f *FS) { f.blockSize = n } }

// New creates a file system over the cluster.
func New(cluster *distsim.Cluster, opts ...Option) (*FS, error) {
	fs := &FS{
		cluster:   cluster,
		blockSize: DefaultBlockSize,
		files:     make(map[string]*file),
	}
	for _, o := range opts {
		o(fs)
	}
	if fs.blockSize <= 0 {
		return nil, fmt.Errorf("dfs: block size must be positive, got %d", fs.blockSize)
	}
	return fs, nil
}

// Write stores data as a new file, splitting into blocks on line
// boundaries (so text records never straddle blocks, like HDFS text
// input splits after record alignment). Overwrites any existing file.
func (fs *FS) Write(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("dfs: empty file name")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &file{}
	// An empty file still gets one (empty) block, so it yields a split.
	for off := 0; off < len(data) || len(f.blocks) == 0; {
		end := off + fs.blockSize
		if end >= len(data) {
			end = len(data)
		} else {
			// Extend to the end of the current line.
			for end < len(data) && data[end-1] != '\n' {
				end++
			}
		}
		f.blocks = append(f.blocks, Block{
			Index: len(f.blocks),
			Data:  append([]byte(nil), data[off:end]...),
			Nodes: fs.placeReplicas(),
		})
		off = end
	}
	fs.files[name] = f
	return nil
}

// placeReplicas picks DefaultReplication consecutive nodes round-robin
// (caller holds the lock).
func (fs *FS) placeReplicas() []int {
	n := fs.cluster.Nodes()
	nodes := make([]int, min(DefaultReplication, n))
	for i := range nodes {
		nodes[i] = (fs.nextNode + i) % n
	}
	fs.nextNode = (fs.nextNode + 1) % n
	return nodes
}

// Split is one unit of input handed to a map task.
type Split struct {
	// Blocks holds the split's data blocks in order.
	Blocks []Block
	// PreferredNodes are nodes holding replicas of the split's data.
	PreferredNodes []int
}

// Bytes returns the split's total payload size.
func (s *Split) Bytes() int64 {
	var n int64
	for _, b := range s.Blocks {
		n += int64(len(b.Data))
	}
	return n
}

// Reader streams the split's blocks in order without concatenating them
// into a fresh buffer — the zero-copy way for map tasks to scan their
// input.
func (s *Split) Reader() io.Reader {
	readers := make([]io.Reader, len(s.Blocks))
	for i, b := range s.Blocks {
		readers[i] = bytes.NewReader(b.Data)
	}
	return io.MultiReader(readers...)
}

// Splits computes the input splits for a set of files. When splittable,
// each block becomes one split (HDFS text input); otherwise each file is
// one split whose preferred nodes are those holding its first block —
// the paper's custom isSplitable()==false input format for data format 3.
func (fs *FS) Splits(names []string, splittable bool) ([]Split, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []Split
	for _, name := range names {
		f, ok := fs.files[name]
		if !ok {
			return nil, fmt.Errorf("dfs: file %q not found", name)
		}
		blocks := f.blocks
		if !splittable {
			out = append(out, Split{Blocks: blocks, PreferredNodes: blocks[0].Nodes})
			continue
		}
		for i := range blocks {
			out = append(out, Split{Blocks: blocks[i : i+1 : i+1], PreferredNodes: blocks[i].Nodes})
		}
	}
	return out, nil
}

// Cluster returns the underlying simulated cluster.
func (fs *FS) Cluster() *distsim.Cluster { return fs.cluster }
