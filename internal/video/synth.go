package video

import (
	"fmt"
	"math"
	"math/rand"
)

// The procedural generator below stands in for the paper's YouTube corpus.
// A Clip is a sequence of scenes; each scene has its own color palette,
// textured background, and a set of moving sprites. Scenes recur according
// to a schedule, which is the property dcSR exploits: recurring scenes
// produce visually similar I-frames that cluster together, so their
// segments share one micro SR model and the client's model cache gets hits.

// SceneSpec parameterizes one visual scene.
type SceneSpec struct {
	Seed      int64   // texture/palette seed; scenes with equal seeds look alike
	Sprites   int     // number of moving objects
	Motion    float64 // sprite speed in pixels/frame at 1080p-equivalent scale
	NoiseFreq float64 // background texture spatial frequency
	Contrast  float64 // texture contrast in [0,1]
}

// Cue schedules Frames consecutive frames of scene index Scene.
type Cue struct {
	Scene  int
	Frames int
}

// Clip is a generated video: an ordered frame supply plus its ground truth
// scene labels (used by tests to validate clustering against the known
// generative structure).
type Clip struct {
	W, H   int
	FPS    int
	Scenes []SceneSpec
	Sched  []Cue

	frames []*RGB
	labels []int
}

// GenConfig configures clip generation.
type GenConfig struct {
	W, H      int
	FPS       int
	Seed      int64
	NumScenes int   // distinct scenes to synthesize
	Cues      []Cue // explicit schedule; if nil, a recurring schedule is built
	TotalCues int   // when Cues is nil: number of scheduled segments
	MinFrames int   // min frames per cue (default 12)
	MaxFrames int   // max frames per cue (default 36)
	Motion    float64
}

// Generate renders a full clip deterministically from cfg.Seed.
func Generate(cfg GenConfig) *Clip {
	if cfg.W <= 0 || cfg.H <= 0 {
		panic("video: Generate requires positive dimensions")
	}
	if cfg.FPS == 0 {
		cfg.FPS = 30
	}
	if cfg.NumScenes == 0 {
		cfg.NumScenes = 4
	}
	if cfg.MinFrames == 0 {
		cfg.MinFrames = 12
	}
	if cfg.MaxFrames == 0 {
		cfg.MaxFrames = 36
	}
	if cfg.Motion == 0 {
		cfg.Motion = 2.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	scenes := make([]SceneSpec, cfg.NumScenes)
	for i := range scenes {
		scenes[i] = SceneSpec{
			Seed:      rng.Int63(),
			Sprites:   2 + rng.Intn(4),
			Motion:    cfg.Motion * (0.5 + float64(rng.Float64())), // Float64 inlines to a multiply by 2⁻⁶³: rounded, as every product here
			NoiseFreq: 6 + float64(10*rng.Float64()),
			Contrast:  0.55 + float64(0.4*rng.Float64()),
		}
	}
	cues := cfg.Cues
	if cues == nil {
		n := cfg.TotalCues
		if n == 0 {
			n = 2 * cfg.NumScenes
		}
		cues = make([]Cue, n)
		for i := range cues {
			// Bias toward revisiting earlier scenes so long-term recurrence
			// (paper §3.2.2) is present: ~50% of cues repeat a prior scene.
			var s int
			if i > 0 && rng.Float64() < 0.5 {
				s = cues[rng.Intn(i)].Scene
			} else {
				s = rng.Intn(cfg.NumScenes)
			}
			// Never repeat the immediately previous scene (a cut must change
			// the picture, or the splitter has nothing to detect).
			if i > 0 && s == cues[i-1].Scene {
				s = (s + 1) % cfg.NumScenes
			}
			cues[i] = Cue{Scene: s, Frames: cfg.MinFrames + rng.Intn(cfg.MaxFrames-cfg.MinFrames+1)}
		}
	}
	c := &Clip{W: cfg.W, H: cfg.H, FPS: cfg.FPS, Scenes: scenes, Sched: cues}
	c.render(rng)
	return c
}

func (c *Clip) render(rng *rand.Rand) {
	type sprite struct {
		x, y, vx, vy, r float64
		cr, cg, cb      uint8
	}
	// Per-scene sprite state persists across recurrences but keeps moving
	// with global time, so a scene's later occurrences are similar to — but
	// not identical with — its first (same palette/texture, shifted objects).
	sprites := make([][]sprite, len(c.Scenes))
	for si, sc := range c.Scenes {
		srng := rand.New(rand.NewSource(sc.Seed))
		ss := make([]sprite, sc.Sprites)
		for i := range ss {
			ang := float64(srng.Float64()) * 2 * math.Pi
			speed := sc.Motion * float64(c.W) / 1920.0 * (0.5 + float64(srng.Float64()))
			ss[i] = sprite{
				x: srng.Float64() * float64(c.W), y: srng.Float64() * float64(c.H),
				vx: math.Cos(ang) * speed, vy: math.Sin(ang) * speed,
				r:  float64(c.W) * (0.03 + float64(0.08*srng.Float64())),
				cr: uint8(40 + srng.Intn(215)), cg: uint8(40 + srng.Intn(215)), cb: uint8(40 + srng.Intn(215)),
			}
		}
		sprites[si] = ss
	}
	_ = rng
	// A backdrop is a pure function of its scene: render it on the
	// scene's first cue and clone it for every frame of every cue.
	backdrops := make([]*RGB, len(c.Scenes))
	for _, cue := range c.Sched {
		if backdrops[cue.Scene] == nil {
			backdrops[cue.Scene] = renderBackground(c.W, c.H, c.Scenes[cue.Scene])
		}
		bg := backdrops[cue.Scene]
		for f := 0; f < cue.Frames; f++ {
			frame := bg.Clone()
			ss := sprites[cue.Scene]
			for i := range ss {
				sp := &ss[i]
				drawDisc(frame, sp.x, sp.y, sp.r, sp.cr, sp.cg, sp.cb)
				sp.x += sp.vx
				sp.y += sp.vy
				if sp.x < 0 || sp.x >= float64(c.W) {
					sp.vx = -sp.vx
					sp.x += float64(2 * sp.vx)
				}
				if sp.y < 0 || sp.y >= float64(c.H) {
					sp.vy = -sp.vy
					sp.y += float64(2 * sp.vy)
				}
			}
			c.frames = append(c.frames, frame)
			c.labels = append(c.labels, cue.Scene)
		}
	}
}

// renderBackground draws the scene's static backdrop: a two-color gradient
// modulated by value noise.
func renderBackground(w, h int, sc SceneSpec) *RGB {
	srng := rand.New(rand.NewSource(sc.Seed ^ 0x5e3779b97f4a7c15))
	c0 := [3]float64{float64(srng.Intn(200)), float64(srng.Intn(200)), float64(srng.Intn(200))}
	c1 := [3]float64{55 + float64(srng.Intn(200)), 55 + float64(srng.Intn(200)), 55 + float64(srng.Intn(200))}
	frame := NewRGB(w, h)
	noise := newValueNoise(sc.Seed)
	fx := sc.NoiseFreq / float64(w)
	fy := sc.NoiseFreq / float64(h)
	for y := 0; y < h; y++ {
		g := float64(y) / float64(h)
		for x := 0; x < w; x++ {
			n := noise.at(float64(x)*fx, float64(y)*fy)
			t := float64(g*(1-sc.Contrast)) + float64(n*sc.Contrast)
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			i := (y*w + x) * 3
			frame.Pix[i] = clamp8(int32(c0[0] + float64((c1[0]-c0[0])*t)))
			frame.Pix[i+1] = clamp8(int32(c0[1] + float64((c1[1]-c0[1])*t)))
			frame.Pix[i+2] = clamp8(int32(c0[2] + float64((c1[2]-c0[2])*t)))
		}
	}
	return frame
}

func drawDisc(f *RGB, cx, cy, r float64, cr, cg, cb uint8) {
	x0 := int(math.Max(0, cx-r))
	x1 := int(math.Min(float64(f.W-1), cx+r))
	y0 := int(math.Max(0, cy-r))
	y1 := int(math.Min(float64(f.H-1), cy+r))
	r2 := r * r
	for y := y0; y <= y1; y++ {
		dy := float64(y) - cy
		for x := x0; x <= x1; x++ {
			dx := float64(x) - cx
			if float64(dx*dx)+float64(dy*dy) <= r2 {
				f.Set(x, y, cr, cg, cb)
			}
		}
	}
}

// valueNoise is a small, seedable 2-D value-noise field with two octaves.
type valueNoise struct{ seed int64 }

func newValueNoise(seed int64) valueNoise { return valueNoise{seed: seed} }

func (v valueNoise) lattice(ix, iy int64) float64 {
	h := uint64(ix)*0x9e3779b97f4a7c15 ^ uint64(iy)*0xbf58476d1ce4e5b9 ^ uint64(v.seed)
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return float64(float64(h%4096) / 4096.0) // the division compiles to a multiply: rounded so no caller fuses it
}

func (v valueNoise) octave(x, y float64) float64 {
	ix, iy := int64(math.Floor(x)), int64(math.Floor(y))
	fx, fy := x-float64(ix), y-float64(iy)
	sx := fx * fx * (3 - float64(2*fx))
	sy := fy * fy * (3 - float64(2*fy))
	v00 := v.lattice(ix, iy)
	v10 := v.lattice(ix+1, iy)
	v01 := v.lattice(ix, iy+1)
	v11 := v.lattice(ix+1, iy+1)
	top := v00 + float64((v10-v00)*sx)
	bot := v01 + float64((v11-v01)*sx)
	return top + float64((bot-top)*sy)
}

func (v valueNoise) at(x, y float64) float64 {
	// Three octaves: the finest one injects the high-frequency detail that
	// aggressive quantization destroys — the content SR must recover.
	return float64(0.5*v.octave(x, y)) + float64(0.3*v.octave(float64(x*2.7)+13.1, float64(y*2.7)+7.9)) + float64(0.2*v.octave(float64(x*7.1)+31.7, float64(y*7.1)+17.3))
}

// Frames returns the clip's RGB frames in display order.
func (c *Clip) Frames() []*RGB { return c.frames }

// Labels returns the generating scene index of every frame.
func (c *Clip) Labels() []int { return c.labels }

// Len returns the number of frames.
func (c *Clip) Len() int { return len(c.frames) }

// Duration returns the clip duration in seconds.
func (c *Clip) Duration() float64 { return float64(len(c.frames)) / float64(c.FPS) }

// YUVFrames converts all frames to YUV 4:2:0.
func (c *Clip) YUVFrames() []*YUV {
	out := make([]*YUV, len(c.frames))
	for i, f := range c.frames {
		out[i] = f.ToYUV()
	}
	return out
}

// String summarizes the clip.
func (c *Clip) String() string {
	return fmt.Sprintf("clip %dx%d@%dfps, %d frames, %d scenes, %d cues",
		c.W, c.H, c.FPS, len(c.frames), len(c.Scenes), len(c.Sched))
}

// Genre presets approximate the paper's "6 representative videos from
// different genres": they vary motion, scene count, and texture complexity.
type Genre int

// Genres used by the evaluation harness.
const (
	GenreSports Genre = iota
	GenreMusic
	GenreDocumentary
	GenreGaming
	GenreNews
	GenreAnimation
	numGenres
)

// String returns the genre's human-readable name.
func (g Genre) String() string {
	switch g {
	case GenreSports:
		return "sports"
	case GenreMusic:
		return "music"
	case GenreDocumentary:
		return "documentary"
	case GenreGaming:
		return "gaming"
	case GenreNews:
		return "news"
	case GenreAnimation:
		return "animation"
	default:
		return fmt.Sprintf("genre(%d)", int(g))
	}
}

// AllGenres lists the six evaluation genres.
func AllGenres() []Genre {
	return []Genre{GenreSports, GenreMusic, GenreDocumentary, GenreGaming, GenreNews, GenreAnimation}
}

// GenreConfig returns a GenConfig preset for genre g at the given frame
// size, with per-genre motion and scene statistics.
func GenreConfig(g Genre, w, h int, seed int64) GenConfig {
	cfg := GenConfig{W: w, H: h, FPS: 30, Seed: seed + int64(g)*1009}
	switch g {
	case GenreSports:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 5, 14, 5.0
	case GenreMusic:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 6, 16, 3.0
	case GenreDocumentary:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 4, 10, 1.0
	case GenreGaming:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 5, 12, 4.0
	case GenreNews:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 3, 10, 0.8
	case GenreAnimation:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 5, 12, 2.5
	default:
		cfg.NumScenes, cfg.TotalCues, cfg.Motion = 4, 10, 2.0
	}
	return cfg
}
