package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runContext describes where a result was measured: core count, Go
// version, CPU, kernel, the filesystem the checkpoints land on, and the
// commit. Values that cannot be read are "unknown".
func runContext(work string) map[string]string {
	commit, dirty := gitState()
	return map[string]string{
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"kernel":        firstLine("/proc/sys/kernel/osrelease"),
		"checkpoint_fs": fsType(work),
		"git_commit":    commit,
		"git_dirty":     dirty,
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
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

// fsType is the type of the filesystem holding dir: the /proc/mounts
// entry with the longest mount point that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// gitState returns the checked-out commit and whether the work tree has
// changes, or "unknown" unless the working directory is the top of a git
// work tree (a checkout nested in some other repository is not).
func gitState() (commit, dirty string) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	top, head, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	if filepath.Clean(top) != filepath.Clean(wd) {
		return "unknown", "unknown"
	}
	commit = head
	// --no-optional-locks keeps status from rewriting the index.
	st, err := exec.Command("git", "--no-optional-locks", "status", "--porcelain").Output()
	if err != nil {
		return commit, "unknown"
	}
	return commit, strconv.FormatBool(len(bytes.TrimSpace(st)) > 0)
}
