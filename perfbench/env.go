package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is the stamp every result carries: toolchain, platform,
// CPU, kernel, the code measured, where the benchmark keeps its files
// (cache directory and manifest live under WorkDir), and the seed.
func environment(c *config) map[string]any {
	return map[string]any{
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"kernel":      readTrim("/proc/sys/kernel/osrelease"),
		"commit":      commit(),
		"tree":        treeHash(),
		"workdir_fs":  fsType(c.WorkDir), // holds the cache directory and the manifest
		"workload":    c.Workload,
		"seed":        c.Seed,
		"corpus_seed": corpusSeed,
		"seconds":     c.Seconds,
		"scale":       c.Scale,
		"trace":       c.Trace,
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
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

// commit is the git HEAD when the checkout is a repository.
func commit() string {
	head := readTrim(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return readTrim(filepath.Join(".git", ref))
	}
	return head
}

// treeHash identifies the code measured, git or not: a hash of every Go
// source and module file under the working directory.
func treeHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "0x" + strings.ToLower(strings.TrimLeft(hex.EncodeToString([]byte{
		byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}), "0"))
}
