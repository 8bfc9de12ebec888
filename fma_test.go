package dcsr_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The Go spec lets a compiler fuse x*y + z into one multiply-add unless
// an explicit conversion rounds the product, float32(x*y) + z; amd64's
// backend never fuses, the four below do. fmaAllowed lists every
// function of the numeric packages that still compiles to a fused
// multiply-add on one of them, and why that is tolerated for now. The
// list may only shrink: a new fused function fails TestFMARatchet, and so
// does an entry that no longer fuses anywhere.
var fmaAllowed = map[string]string{
	// Training and its loss: no output crosses a machine boundary, and
	// TestTrainGolden skips on fused builds.
	"dcsr/internal/nn.(*Adam).Step":             "optimizer update",
	"dcsr/internal/nn.MSELoss":                  "training loss",
	"dcsr/internal/edsr.(*Model).Train":         "training loop (inlines MSELoss)",
	"dcsr/internal/edsr.(*Model).EvalMSE":       "evaluation loss",
	"dcsr/internal/tensor.(*Tensor).SumSquares": "reduction for norms",
	"dcsr/internal/tensor.Dot":                  "reduction for norms",
	// The publisher's gates: a verdict, not a shipped byte.
	"dcsr/internal/core.frameMSE":                   "gate MSE",
	"dcsr/internal/core.deltaEncodeModel":           "inlines frameMSE",
	"dcsr/internal/core.(*prepState).quantizeModel": "inlines frameMSE",
	// A FLOP counter for the device model.
	"dcsr/internal/edsr.ConfigFLOPs": "FLOP count",
}

// fusedOp matches the fused multiply-add mnemonics of arm64, ppc64le,
// s390x and riscv64 (FMADDS, FMADDD, FMADD, FNMSUBS, …).
var fusedOp = regexp.MustCompile(`^FN?M(ADD|SUB)[SD]?$`)

// TestFMARatchet cross-compiles the numeric packages with -gcflags=-S for
// each architecture whose backend fuses and checks every function that
// compiles to a fused multiply-add against fmaAllowed. It builds only, so
// it runs offline on any host; the build cache replays the listings.
func TestFMARatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles four architectures; skipped in short mode")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command beside this toolchain: %v", err)
	}
	pkgs := []string{"./internal/tensor", "./internal/nn", "./internal/edsr", "./internal/stream", "./internal/core"}
	seen := map[string]bool{}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goBin, append([]string{"build", "-gcflags=-S"}, pkgs...)...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%.2000s", arch, err, out)
		}
		fn, found := "", map[string]string{}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 1 && f[1] == "STEXT":
				fn = f[0]
			case strings.HasPrefix(line, "\t0x") && len(f) > 3 && fusedOp.MatchString(f[3]):
				found[fn] = f[3]
			}
		}
		if len(found) == 0 {
			t.Fatalf("GOARCH=%s: no function listed or none fused; is -S output reaching the test?", arch)
		}
		for fn, op := range found {
			seen[fn] = true
			if _, ok := fmaAllowed[fn]; !ok {
				t.Errorf("GOARCH=%s: %s compiles to %s; round the product (float32(x*y) + z) or allowlist it with a reason", arch, fn, op)
			}
		}
	}
	var stale []string
	for fn := range fmaAllowed {
		if !seen[fn] {
			stale = append(stale, fn)
		}
	}
	sort.Strings(stale)
	for _, fn := range stale {
		t.Errorf("%s no longer fuses on any architecture; delete it from fmaAllowed", fn)
	}
}
