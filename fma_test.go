package dcsr_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add mnemonics of arm64, ppc64le,
// s390x and riscv64 (FMADDS, FMADDD, FMADD, FNMSUBS, …).
var fusedOp = regexp.MustCompile(`^FN?M(ADD|SUB)[SD]?$`)

// The Go spec lets a compiler fuse x*y + z into one multiply-add unless
// an explicit conversion rounds the product, float32(x*y) + z; amd64's
// backend never fuses, the four below do. Every product in the numeric
// packages is rounded — inference, training, deltas, the publisher's
// gates, the codec, the PSNR and SSIM metrics, and the clip generator and
// resamplers the goldens' inputs come from — so no pinned bit and no
// reported quality figure depends on whether a backend fuses.
// TestFMARatchet keeps it so: it cross-compiles those packages with
// -gcflags=-S for each architecture whose backend fuses and fails on every
// function that compiles to a fused multiply-add. It builds only, so it
// runs offline on any host; the build cache replays the listings.
func TestFMARatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles four architectures; skipped in short mode")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command beside this toolchain: %v", err)
	}
	pkgs := []string{"./internal/tensor", "./internal/nn", "./internal/edsr", "./internal/stream", "./internal/core",
		"./internal/codec", "./internal/vae", "./internal/video", "./internal/cluster", "./internal/quality"}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goBin, append([]string{"build", "-gcflags=-S"}, pkgs...)...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%.2000s", arch, err, out)
		}
		fn, reported, listed := "", map[string]bool{}, 0
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 1 && f[1] == "STEXT":
				fn = f[0]
				listed++
			case strings.HasPrefix(line, "\t0x") && len(f) > 3 && fusedOp.MatchString(f[3]) && !reported[fn]:
				reported[fn] = true
				t.Errorf("GOARCH=%s: %s compiles to %s; round the product (float32(x*y) + z)", arch, fn, f[3])
			}
		}
		if listed == 0 {
			t.Fatalf("GOARCH=%s: no function listed; is -S output reaching the test?", arch)
		}
	}
}
