//go:build linux

package storage

import (
	"os"
	"syscall"
	"unsafe"
)

// The inode-flag ioctls and the flag that marks a directory as the top of
// its own hierarchy for ext2/3/4's Orlov allocator (chattr +T).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopDirFl    = 0x00020000
)

// markTopDir asks the filesystem to place each subdirectory of dir, and so
// the files created inside it, in a block group of its own choosing rather
// than beside dir.  Without it every private directory of the pool, and
// every inode created in them, lands in the work directory's block group,
// and on a filesystem where that group has seen heavy create and delete
// churn each creation there costs several times what it costs in a quiet
// group.  Filesystems without the flag refuse the ioctl; the pool then
// works as before.
func markTopDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopDirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
