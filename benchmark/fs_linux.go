package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// fsType names the filesystem holding dir (or its nearest existing parent):
// the rt-log-wal numbers mean nothing on tmpfs, so the run records it.
func fsType(dir string) string {
	dir = filepath.Clean(dir)
	for dir != "." && dir != "/" {
		if _, err := os.Stat(dir); err == nil {
			break
		}
		dir = filepath.Dir(dir)
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
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
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
