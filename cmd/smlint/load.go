package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// loader parses and type-checks packages without golang.org/x/tools.
// Imports inside the current module resolve by mapping the import path
// onto the module directory; everything else (the standard library)
// resolves through the stdlib source importer.
//
// The loader is safe for concurrent use: the driver analyzes packages
// in parallel, so each import path is loaded exactly once (concurrent
// requests for an in-flight package wait for the first load), and the
// stdlib source importer — which is not synchronized internally — is
// serialized behind its own mutex. The shared token.FileSet is
// concurrency-safe by contract.
type loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string

	std   types.Importer
	stdMu sync.Mutex

	mu      sync.Mutex
	entries map[string]*loadEntry
}

// loadEntry is one package's load, shared by every goroutine that needs
// it; done is closed when the fields are final.
type loadEntry struct {
	done  chan struct{}
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(modPath, modRoot string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modPath: modPath,
		modRoot: modRoot,
		std:     importer.ForCompiler(fset, "source", nil),
		entries: map[string]*loadEntry{},
	}
}

// Import implements types.Importer so repo packages can depend on each
// other during type checking.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		e := l.entry(path, filepath.Join(l.modRoot, rel))
		return e.pkg, e.err
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// load parses the non-test Go files in dir and type-checks them as one
// package, returning the package, its syntax and the filled type info.
// Concurrent calls for the same path share one load.
func (l *loader) load(path, dir string) (*types.Package, []*ast.File, *types.Info, error) {
	e := l.entry(path, dir)
	return e.pkg, e.files, e.info, e.err
}

// entry returns the (possibly in-flight) load for path, starting it if
// this is the first request.
func (l *loader) entry(path, dir string) *loadEntry {
	l.mu.Lock()
	if e, ok := l.entries[path]; ok {
		l.mu.Unlock()
		<-e.done
		return e
	}
	e := &loadEntry{done: make(chan struct{})}
	l.entries[path] = e
	l.mu.Unlock()
	e.pkg, e.files, e.info, e.err = l.parseAndCheck(path, dir)
	close(e.done)
	return e
}

// parseAndCheck does the actual parse + type-check of one package.
func (l *loader) parseAndCheck(path, dir string) (*types.Package, []*ast.File, *types.Info, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, files, info, nil
}

// goFiles lists the buildable non-test .go files in dir, sorted:
// buildable for the host's GOOS and GOARCH, by file name suffix and
// //go:build line, as the go command would pick them.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// packageDirs walks root and returns every directory containing
// buildable Go files, skipping testdata, vendor and hidden trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != root && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		names, err := goFiles(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module path and root directory.
func findModule(dir string) (modPath, modRoot string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}

// importPathFor maps a directory inside the module to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}
