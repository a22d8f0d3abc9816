package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment stamps a results file with what the numbers depend on besides
// the code: a wall-clock figure means nothing without it.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Commit     string  `json:"commit"` // git rev-parse HEAD, "unknown" outside a git checkout
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Txns       int     `json:"txns"` // 0 = each workload's default
	Traced     bool    `json:"traced"`
	Clients    int     `json:"clients"`
	Dir        string  `json:"dir"`
	// Filesystem is the type of the file system Dir is on, as /proc/mounts
	// names it: durable-workload numbers are that file system's, not a
	// disk's.
	Filesystem string `json:"filesystem"`
}

func stampEnvironment(cfg config) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Txns:       cfg.txns,
		Traced:     cfg.traced,
		Clients:    clients,
		Dir:        cfg.dir,
		Filesystem: "unknown",
	}
	if head, err := git("rev-parse", "HEAD"); err == nil {
		env.Commit = head
		status, err := git("status", "--porcelain")
		env.Dirty = err != nil || status != ""
	}
	if abs, err := filepath.Abs(cfg.dir); err == nil {
		env.Dir = abs
		if mounts, err := os.ReadFile("/proc/mounts"); err == nil {
			env.Filesystem = filesystemOf(abs, string(mounts))
		}
	}
	return env
}

// git runs a git command in the working directory. The ceiling keeps git
// from walking up into a repository that merely contains the checkout.
func git(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

// filesystemOf returns the type of the mount with the longest mount point
// that is a prefix of path, given the contents of /proc/mounts.
func filesystemOf(path, mounts string) string {
	best, fstype := "", "unknown"
	for _, line := range strings.Split(mounts, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		under := path == mp || mp == "/" || strings.HasPrefix(path, mp+"/")
		if under && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}
