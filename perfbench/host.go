package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host is the machine record every report carries.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	// StoreFS is the filesystem type under the serve-50k snapshot store.
	StoreFS string `json:"storeFS,omitempty"`
	// StoreTmpfs flags a store in memory: its fsync costs nothing, so
	// checkpoint.save_s and serve.restart_s do not measure a disk.
	StoreTmpfs bool `json:"storeTmpfs,omitempty"`
}

func hostRecord() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func (h host) String() string {
	s := fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	if h.StoreFS != "" {
		s += " store_fs=" + h.StoreFS
		if h.StoreTmpfs {
			s += " (WARNING: tmpfs store; fsync is free, so checkpoint.save_s and serve.restart_s do not measure a disk)"
		}
	}
	return s
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

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x858458F6: "ramfs",
}

// filesystemOf names the filesystem holding dir and whether it lives in
// memory.
func filesystemOf(dir string) (name string, inMemory bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", false
	}
	t := int64(st.Type)
	name, ok := fsNames[t]
	if !ok {
		name = fmt.Sprintf("0x%x", t)
	}
	return name, name == "tmpfs" || name == "ramfs"
}
