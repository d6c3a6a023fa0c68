package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance says which code, toolchain and machine produced a record.
// The benchmark runs from the repository root, which need not be a git
// checkout, so the record also carries a digest of the module's
// source files.
func provenance(seed int64) map[string]any {
	return map[string]any{
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"cpu":           cpuModel(),
		"date":          time.Now().UTC().Format(time.RFC3339),
		"seed":          seed,
		"workers":       workers,
	}
}

// gitCommit is HEAD of the git work tree rooted at the working
// directory, or "unknown" when the directory is no such root.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	lines := strings.Fields(string(out))
	if err != nil || werr != nil || len(lines) != 2 || filepath.Clean(lines[0]) != filepath.Clean(wd) {
		return "unknown"
	}
	return lines[1]
}

// sourceDigest hashes the path and content of every .go file and
// go.mod under root, in lexical order, skipping hidden directories
// (build output lives in .bench_build).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
