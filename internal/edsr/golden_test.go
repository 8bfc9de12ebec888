package edsr

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"dcsr/internal/nn"
	"dcsr/internal/tensor"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// The golden table pins training's output bits: the serialized weights
// and the reported losses after a few optimizer steps, across the three
// scales, three batch sizes and two worker counts, plus one VAE run. It
// was generated from the commit *before* the training step stopped
// allocating (activations, column matrices and gradients reused across
// steps) and must never be regenerated to make a change pass — a
// mismatch means the change altered a trained weight.
//
// The bits rest on × and + being rounded separately. The Go spec lets a
// compiler fuse x*y + z into one multiply-add, and gc does so on arm64,
// ppc64le, s390x and riscv64; every product on the training path — and in
// the generator the pairs come from — is written as float32(x*y) + z,
// which no backend fuses, and TestFMARatchet (repo root) keeps it so. The
// table no longer depends on whether a backend fuses; the math package's
// per-architecture assembly (Exp, Cos) is what it still trusts.

func weightsDigest(ps []*nn.Param) string {
	return fmt.Sprintf("%x", sha256.Sum256(nn.EncodeWeights(ps)))
}

// trainGoldenRows computes the table: one "name weights-digest loss-bits"
// row per training run.
func trainGoldenRows(t *testing.T) []string {
	var rows []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		tensor.ShutdownPool()
		for _, scale := range []int{1, 2, 4} {
			var pairs []Pair
			for _, seed := range []int64{21, 22} {
				high := genFrame(t, 40*scale, 32*scale, seed)
				low := genFrame(t, 40, 32, seed)
				if scale == 1 {
					// A same-size pair needs a degraded input, or the
					// zero-initialised tail starts at zero loss and no
					// weight ever moves.
					low = video.NewRGB(high.W, high.H)
					for i, v := range high.Pix {
						low.Pix[i] = v&^0x1f | 0x10
					}
				}
				pairs = append(pairs, Pair{Low: low, High: high})
			}
			for _, batch := range []int{1, 2, 4} {
				m, err := New(Config{Filters: 8, ResBlocks: 2, Scale: scale}, int64(31+scale))
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Train(pairs, TrainOptions{Steps: 12, BatchSize: batch, PatchSize: 16, Seed: int64(41 + batch)})
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, fmt.Sprintf("edsr/x%d/batch%d/procs%d %s first=%016x final=%016x",
					scale, batch, procs, weightsDigest(m.Params()),
					math.Float64bits(res.FirstLoss), math.Float64bits(res.FinalLoss)))
			}
		}
	}
	runtime.GOMAXPROCS(2)
	tensor.ShutdownPool()
	vm, err := vae.New(vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4}, 51)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*video.RGB
	for i := int64(0); i < 5; i++ {
		frames = append(frames, genFrame(t, 40, 32, 61+i))
	}
	// Five frames at batch 2: the last batch of every epoch is short, so
	// the run also covers a batch size changing between steps.
	vres, err := vm.Train(frames, vae.TrainOptions{Epochs: 4, BatchSize: 2, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, fmt.Sprintf("vae/img16/batch2/procs2 %s recon=%016x kl=%016x",
		weightsDigest(vm.Params()), math.Float64bits(vres.FinalRecon), math.Float64bits(vres.FinalKL)))
	return rows
}

func TestTrainGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	want, err := os.ReadFile("testdata/train_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(trainGoldenRows(t), "\n") + "\n"
	if got == string(want) {
		return
	}
	wantRows := strings.Split(string(want), "\n")
	for i, row := range strings.Split(got, "\n") {
		if i >= len(wantRows) {
			t.Errorf("row %d: got %q, want no such row", i, row)
		} else if row != wantRows[i] {
			t.Errorf("row %d: got %q, want %q", i, row, wantRows[i])
		}
	}
	t.Logf("computed table:\n%s", got)
}
