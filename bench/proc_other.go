//go:build !linux

package main

import "syscall"

// childAttr is nil where the kernel offers no parent-death signal; servers
// are then stopped only by the benchmark's own cleanup.
func childAttr() *syscall.SysProcAttr { return nil }
