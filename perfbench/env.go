package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envStamp describes where and on what a run measured, so results from
// different hosts or code are not compared blindly.
func envStamp(cfg runConfig) map[string]any {
	dataFS, flush := "none (in-memory)", "none (in-memory)"
	if cfg.workload != "inherit-read" {
		dataFS, flush = fsKind(cfg.dir), flushPolicy
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"data_fs":    dataFS,
		"flush":      flush,
		"seed":       cfg.seed,
		"commit":     gitHead("."),
	}
}

// tmpfsMagic is the statfs f_type of tmpfs.
const tmpfsMagic = 0x01021994

// fsKind reports whether dir lies on tmpfs or on a disk filesystem.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// gitHead returns the commit checked out in root, or "unknown" when root
// is not a git work tree (a source export, for instance).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
