package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a virtual machine an idle vCPU halts, and waking it takes the host
// scheduler's time: a delay that, not the program, set most of the
// run-to-run spread of the open-loop latencies (a request crosses
// several idle-to-busy wake-ups). While the benchmark measures, one
// spinner per CPU runs at SCHED_IDLE, the lowest class: it takes a CPU
// only when nothing else wants it, so the CPUs never halt and every
// wake-up stays inside the guest.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spin is the body of a spinner process: drop this thread to
// SCHED_IDLE and burn it until killed.
func spin() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "mintbench: spinner: sched_setscheduler:", errno)
		os.Exit(1)
	}
	for {
	}
}

// spinners runs the idle-class spinners; stop kills them and waits.
type spinners []*exec.Cmd

func startSpinners() (spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var s spinners
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-spin")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			s.stop()
			return nil, err
		}
		s = append(s, cmd)
	}
	return s, nil
}

func (s spinners) stop() {
	for _, c := range s {
		c.Process.Kill() //nolint:errcheck // already exited is fine
		c.Wait()         //nolint:errcheck // killed on purpose
	}
}
