//go:build !linux

package storage

// markTopDir is a no-op off Linux: the allocator hint is an ext2/3/4 inode
// flag.
func markTopDir(dir string) {}
