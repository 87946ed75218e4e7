package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment names the machine and settings a result came from, so
// figures from different machines are never compared by accident.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Commit     string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_dir_fs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"run_seconds"`
	Trace      bool   `json:"trace"`
}

func describeEnv(workload string, seed int64, seconds int, trace bool, dataRoot string) environment {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		Commit:     gitCommit("."),
		Kernel:     strings.TrimSpace(string(kernel)),
		DataFS:     fsName(dataRoot),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// gitCommit resolves HEAD of the checkout at root without running git,
// or reports that the checkout is not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown (" + ref + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown (" + ref + ")"
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// procIOWriteBytes reads this process's storage-layer write bytes
// from /proc/self/io (0 where the kernel does not expose it).
func procIOWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// stealSample is the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks.
type stealSample struct{ steal, total int64 }

func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// since is the share of CPU time stolen between prev and s.
func (s stealSample) since(prev stealSample) float64 {
	if d := s.total - prev.total; d > 0 {
		return float64(s.steal-prev.steal) / float64(d)
	}
	return 0
}
