package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Figure8 regenerates the source-lines-of-code table for the Multiverse
// components, mapped onto this repository's packages:
//
//	Multiverse runtime   -> internal/core (minus the toolchain)
//	Multiverse toolchain -> internal/core/toolchain.go + cmd/mvtool
//	Nautilus additions   -> internal/aerokernel
//	HVM additions        -> internal/hvm
//
// Counting runs against the source tree, so it must execute from within
// the repository (as go test and mvtool sloc do). It is not a row of
// Suites: the counts move with every code change, so they are no result.
func Figure8() (*Table, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}

	components := []struct {
		name  string
		paths []string
		skip  []string
	}{
		{
			name:  "Multiverse runtime",
			paths: []string{"internal/core"},
			skip:  []string{"toolchain.go"},
		},
		{
			name:  "Multiverse toolchain",
			paths: []string{"internal/core/toolchain.go", "cmd/mvtool"},
		},
		{
			name:  "Nautilus additions",
			paths: []string{"internal/aerokernel"},
		},
		{
			name:  "HVM additions",
			paths: []string{"internal/hvm"},
		},
	}

	t := &Table{
		Title:  "Figure 8: Source Lines of Code for Multiverse (this reproduction, Go)",
		Header: []string{"Component", "SLOC"},
	}
	total := 0
	for _, c := range components {
		n := 0
		for _, p := range c.paths {
			count, err := slocAt(filepath.Join(root, p), c.skip)
			if err != nil {
				return nil, err
			}
			n += count
		}
		total += n
		t.AddRow(c.name, fmt.Sprintf("%d", n))
	}
	t.AddRow("Total", fmt.Sprintf("%d", total))
	t.AddNote("paper (C/ASM/Perl): runtime 2297, toolchain 130, Nautilus 1670, HVM 638, total 4735")
	return t, nil
}

// moduleRoot walks upward from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: go.mod not found above working directory (run from the repository)")
		}
		dir = parent
	}
}

// slocAt counts non-blank, non-comment Go lines in a file or directory
// (non-recursive for directories; tests excluded).
func slocAt(path string, skip []string) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	var files []string
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return 0, err
		}
	entryLoop:
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, s := range skip {
				if name == s {
					continue entryLoop
				}
			}
			files = append(files, filepath.Join(path, name))
		}
	} else {
		files = []string{path}
	}
	total := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if trimmed == "" || strings.HasPrefix(trimmed, "//") {
				continue
			}
			total++
		}
	}
	return total, nil
}
