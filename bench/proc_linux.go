package main

import "syscall"

// childAttr makes a started server die with the benchmark, even when the
// benchmark exits without stopping it (a panic, a kill).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
