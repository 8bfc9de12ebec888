//go:build !purego

package tensor

import "syscall"

// requestAMX asks the kernel for the AMX tile-data state
// (arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)), which Linux
// grants per process and which a thread must hold before its first tile
// instruction. A refusal — an old kernel, or a seccomp profile denying
// the call — leaves the VNNI lane in charge.
func requestAMX() error {
	const archReqXcompPerm, xfeatureXtiledata = 0x1023, 18
	if _, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtiledata, 0); errno != 0 {
		return errno
	}
	return nil
}
