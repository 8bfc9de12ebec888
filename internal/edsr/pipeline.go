package edsr

import (
	"fmt"
	"runtime"

	"dcsr/internal/nn"
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// Inference is a row pipeline. Every layer of the graph is a 3×3,
// stride-1, pad-1 convolution (stage), and every activation between two
// of them (feed) lives in a ring of its last few rows — a float32
// tensor.Ring, and on the int8 path the tensor.Int8Map its consumer's
// kernels read — so a pass holds O(width) activations whatever the
// frame's height. A pass walks steps: step t converts input row t, then
// every stage, in graph order, computes the conv rows the schedule gives
// it — stage i's rows rate·(t−delay) … rate·(t−delay+1)−1, at its own
// resolution — each from its window of input rows, published one step
// earlier or, from an upstream stage, earlier in the same step:
//
//	input          rate 1, delay 0 (the frame's row t)
//	head           rate 1, delay 1
//	block k conv1  rate 1, delay 2+2k
//	block k conv2  rate 1, delay 3+2k (residual: block k's input row)
//	body conv      rate 1, delay 2·RB+2 (residual: the head's row)
//	upsampling j   rate 2^j, delay 2·RB+3+j (two output rows per conv row)
//	tail           rate Scale, delay 2·RB+3+len(ups) (residual: the image)
//
// So each element is computed once (per stripe), from the same operands
// in the same order as a whole-frame pass: the bits are the whole-frame
// kernels'. A window needs 2·rate+1 rows; a residual read of a feed
// whose producer runs d steps earlier needs d+1 — the head's output,
// read by the body convolution 2·RB+1 steps later, is the deepest ring
// but the input's, which the tail's image residual reads.
//
// At GOMAXPROCS > 1 the frame is split into horizontal stripes, one per
// worker, each with its own rings, each recomputing the halo of rows its
// last rows' receptive field reaches into its neighbours; a stripe
// computes whole elements, so the bits do not depend on the split.

// stage is one convolution of the graph as the pipeline runs it.
type stage struct {
	conv     *nn.Conv2D
	relu     bool
	in, out  int // feeds: its window's, its rows' (-1: the pass's output)
	res      int // the feed its residual is read from (-1: none)
	resScale float32
	shuffle  *nn.PixelShuffle // its rows go through it into out, if set
	rate     int              // conv rows per step
	delay    int              // the step that computes conv row 0
	h, w     int              // conv rows and pixels a row
}

// feed is one activation between stages, h rows of c channels of w
// pixels.
type feed struct {
	c, h, w  int
	consumer int  // the stage whose window it is
	delay    int  // the step its producer writes row 0 in
	fSlots   int  // float32 ring depth; 0: no ring
	window   bool // the float32 ring is the window (float32 passes)
	qSlots   int  // int8 map depth: the window (int8 passes); 0: none
}

// span is a half-open range of rows.
type span struct{ lo, hi int }

func (s *span) add(lo, hi int) {
	s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
}

// lane is one stripe's working set: every feed's rings and the rows the
// ends of the pipeline convert through.
type lane struct {
	f    []tensor.Ring
	q    []tensor.Int8Map
	need []span     // per feed: the rows the stripe needs
	rows []span     // per stage: the conv rows the stripe computes
	obs  []float32  // per stage: calibration's max-abs of its input rows
	wide []float32  // an upsampling convolution's row before the shuffle
	sink []float32  // the tail's row, for an RGB or YUV output
	pix  [3][]uint8 // RGB rows: a YUV input's, a YUV output's even and odd
}

// pass is one inference pass: where its rows come from and go to. Its
// input is x (N, 3, H, W), rgb or yuv; its output toRGB, toYUV or, with
// neither, the workspace's output tensor.
type pass struct {
	x            *tensor.Tensor
	rgb          *video.RGB
	yuv          *video.YUV
	toRGB        *video.RGB
	toYUV        *video.YUV
	int8Path     bool
	observe      bool // fold every convolution's input max-abs (a calibration pass)
	n, h, w, img int
}

// run is the one inference graph walk of both precisions: every
// convolution runs on the int8 kernels when p.int8Path holds, on the
// float32 ones otherwise; the structural glue — residual adds, pixel
// shuffle — is float32 either way.
func (m *Model) run(p *pass) {
	ws := m.workspace()
	p.observe = m.calibrating && !p.int8Path
	switch {
	case p.x != nil:
		if p.x.Shape[1] != 3 {
			panic(fmt.Sprintf("edsr: input has %d channels, want 3", p.x.Shape[1]))
		}
		p.n, p.h, p.w = p.x.Shape[0], p.x.Shape[2], p.x.Shape[3]
	case p.rgb != nil:
		p.n, p.h, p.w = 1, p.rgb.H, p.rgb.W
	default:
		p.n, p.h, p.w = 1, p.yuv.H, p.yuv.W
	}
	if p.h == 0 || p.w == 0 {
		return
	}
	m.plan(ws, p.h, p.w, p.int8Path)
	if tail := &ws.stages[len(ws.stages)-1]; p.toRGB == nil && p.toYUV == nil {
		tensor.Ensure(&ws.out, p.n, 3, tail.h, tail.w)
	}
	// Stripes of at least four receptive radii, on even rows: a YUV
	// output's row pairs never straddle two.
	stripes := max(1, min(runtime.GOMAXPROCS(0), p.h/(4*len(ws.stages))))
	ws.lanesFor(p, stripes)
	for i := range ws.stages {
		st := &ws.stages[i]
		if p.int8Path {
			ws.kq[i] = st.conv.Int8ConvRows(st.w, st.relu)
			ws.inv[i] = st.conv.InputMultiplier()
		} else {
			ws.kf[i] = st.conv.ConvRows(st.w, st.relu)
		}
	}
	for p.img = 0; p.img < p.n; p.img++ {
		if stripes == 1 {
			ws.stripe(p, &ws.lanes[0], 0, p.h)
			continue
		}
		// The closure captures a branch-local copy so p never escapes
		// and the serial path above stays allocation-free.
		pp := *p
		tensor.ParallelFor(stripes, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				ws.stripe(&pp, &ws.lanes[s], stripeRow(pp.h, s, stripes), stripeRow(pp.h, s+1, stripes))
			}
		})
	}
	for i := range ws.stages {
		if p.observe {
			var mx float32
			for s := 0; s < stripes; s++ {
				if v := ws.lanes[s].obs[i]; v > mx {
					mx = v
				}
			}
			ws.stages[i].conv.Observe(mx)
		}
		if p.int8Path {
			ws.kq[i].Release()
		} else {
			ws.kf[i].Release()
		}
	}
}

// stripeRow is the first input row of stripe s of n over h rows.
func stripeRow(h, s, n int) int {
	if s == n {
		return h
	}
	return h * s / n &^ 1
}

// plan lays the graph out for an h×w input into ws: its stages, in
// graph order, and its feeds, with the ring depths the schedule needs.
func (m *Model) plan(ws *Workspace, h, w int, int8Path bool) {
	ws.stages, ws.feeds = ws.stages[:0], ws.feeds[:0]
	nf, rb := m.Cfg.Filters, len(m.body)
	in := ws.addFeed(3, h, w, 0)
	skip := ws.addFeed(nf, h, w, 1)
	ws.addStage(stage{conv: m.head, in: in, out: skip, res: -1, rate: 1, delay: 1})
	x := skip
	for k, b := range m.body {
		mid := ws.addFeed(nf, h, w, 2+2*k)
		out := ws.addFeed(nf, h, w, 3+2*k)
		ws.addStage(stage{conv: b.Conv1, relu: true, in: x, out: mid, res: -1, rate: 1, delay: 2 + 2*k})
		ws.addStage(stage{conv: b.Conv2, in: mid, out: out, res: x, resScale: b.ResScale, rate: 1, delay: 3 + 2*k})
		x = out
	}
	g := ws.addFeed(nf, h, w, 2*rb+2)
	ws.addStage(stage{conv: m.bodyConv, in: x, out: g, res: skip, resScale: 1, rate: 1, delay: 2*rb + 2})
	x = g
	r := 1
	for j, u := range m.ups {
		o := ws.addFeed(nf, 2*r*h, 2*r*w, 2*rb+3+j)
		ws.addStage(stage{conv: u.conv, in: x, out: o, res: -1, shuffle: u.shuffle, rate: r, delay: 2*rb + 3 + j})
		x, r = o, 2*r
	}
	// The tail's residual is the image: feed 0, read at its
	// low-resolution row.
	ws.addStage(stage{conv: m.tail, in: x, out: -1, res: in, resScale: 1, rate: r, delay: 2*rb + 3 + len(m.ups)})
	for i := range ws.stages {
		st := &ws.stages[i]
		f := &ws.feeds[st.in]
		if int8Path {
			f.qSlots = 2*st.rate + 1
		} else {
			f.fSlots, f.window = max(f.fSlots, 2*st.rate+1), true
		}
		if st.res >= 0 {
			d := st.delay - ws.feeds[st.res].delay
			ws.feeds[st.res].fSlots = max(ws.feeds[st.res].fSlots, d+1)
		}
		if st.out >= 0 && !(int8Path && st.relu) {
			ws.feeds[st.out].fSlots = max(ws.feeds[st.out].fSlots, 1)
		}
	}
}

func (ws *Workspace) addFeed(c, h, w, delay int) int {
	ws.feeds = append(ws.feeds, feed{c: c, h: h, w: w, delay: delay, consumer: -1})
	return len(ws.feeds) - 1
}

func (ws *Workspace) addStage(st stage) {
	st.h, st.w = ws.feeds[st.in].h, ws.feeds[st.in].w
	ws.feeds[st.in].consumer = len(ws.stages)
	ws.stages = append(ws.stages, st)
}

// lanesFor sizes the workspace's per-pass state and its first n lanes
// for p (grown, never shrunk).
func (ws *Workspace) lanesFor(p *pass, n int) {
	ns := len(ws.stages)
	ws.kf = grow(ws.kf, ns)
	ws.kq = grow(ws.kq, ns)
	ws.inv = grow(ws.inv, ns)
	ws.lanes = grow(ws.lanes, n)
	last := &ws.stages[ns-1]
	wide := 0
	for _, st := range ws.stages {
		if st.shuffle != nil {
			wide = max(wide, st.conv.Spec.OutC*st.w)
		}
	}
	for i := range ws.lanes[:n] {
		ln := &ws.lanes[i]
		ln.f = grow(ln.f, len(ws.feeds))
		ln.q = grow(ln.q, len(ws.feeds))
		ln.need = grow(ln.need, len(ws.feeds))
		ln.rows = grow(ln.rows, ns)
		ln.obs = grow(ln.obs, ns)
		ln.wide = grow(ln.wide, wide)
		if p.toRGB != nil || p.toYUV != nil {
			ln.sink = grow(ln.sink, 3*last.w)
		}
		if p.yuv != nil {
			ln.pix[0] = grow(ln.pix[0], 3*p.w)
		}
		if p.toYUV != nil {
			ln.pix[1] = grow(ln.pix[1], 3*last.w)
			ln.pix[2] = grow(ln.pix[2], 3*last.w)
		}
	}
}

// grow returns s resliced to n elements, reallocated if too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// stripe runs one image of the pass over input rows [lo, hi) of the
// frame in the lane's rings.
func (ws *Workspace) stripe(p *pass, ln *lane, lo, hi int) {
	last := len(ws.stages) - 1
	tail := &ws.stages[last]
	for f := range ln.need {
		ln.need[f] = span{ws.feeds[f].h, 0}
	}
	// Each stage computes what its consumers read, last stage first.
	for i := last; i >= 0; i-- {
		st := &ws.stages[i]
		r := span{tail.rate * lo, tail.rate * hi}
		if i != last {
			r = ln.need[st.out]
			if st.shuffle != nil {
				r = span{r.lo / 2, (r.hi + 1) / 2}
			}
		}
		ln.rows[i] = r
		ln.need[st.in].add(max(0, r.lo-1), min(st.h, r.hi+1))
		switch {
		case i == last:
			ln.need[st.res].add(r.lo/st.rate, (r.hi-1)/st.rate+1)
		case st.res >= 0:
			ln.need[st.res].add(r.lo, r.hi)
		}
	}
	for f := range ws.feeds {
		fd := &ws.feeds[f]
		if fd.fSlots > 0 {
			ln.f[f].Reset(fd.c, fd.w, 1, fd.fSlots, fd.window)
		}
		if fd.qSlots > 0 {
			ln.q[f].Reset(fd.c, fd.w, 1, fd.qSlots)
		}
		if ln.need[f].lo == 0 {
			ws.zero(ln, f, -1)
		}
	}
	clear(ln.obs)
	in := ln.need[0]
	for t := in.lo; t <= tail.delay+(ln.rows[last].hi-1)/tail.rate; t++ {
		if t >= in.lo && t < in.hi {
			ws.inputRow(p, ln, t)
		} else if t == in.hi && in.hi == p.h {
			ws.zero(ln, 0, t)
		}
		for i := range ws.stages {
			st := &ws.stages[i]
			r := ln.rows[i]
			for y := st.rate * (t - st.delay); y < st.rate*(t-st.delay+1); y++ {
				if y >= r.lo && y < r.hi {
					ws.stageRow(p, ln, i, y)
				} else if y == r.hi && r.hi == st.h && st.out >= 0 {
					z := y
					if st.shuffle != nil {
						z = 2 * y
					}
					ws.zero(ln, st.out, z)
				}
			}
		}
	}
}

// zero writes row y of feed f as a row outside the frame, into its
// window.
func (ws *Workspace) zero(ln *lane, f, y int) {
	if ws.feeds[f].qSlots > 0 {
		ln.q[f].ZeroRow(y)
	} else {
		ln.f[f].Zero(y)
	}
}

// put finishes row y of feed f once written into its float32 ring: it
// publishes it to the window, folds its max-abs into its consumer's
// calibration range, and quantizes it into its consumer's map.
func (ws *Workspace) put(p *pass, ln *lane, f, y int) {
	fd := &ws.feeds[f]
	r := &ln.f[f]
	if fd.window {
		r.Publish(y)
	}
	if p.observe {
		if v := tensor.MaxAbs(r.Row(y)); v > ln.obs[fd.consumer] {
			ln.obs[fd.consumer] = v
		}
	}
	if fd.qSlots > 0 {
		ln.q[f].QuantizeRow(y, r.Row(y), r.Stride(), ws.inv[fd.consumer])
	}
}

// inputRow converts input row t of the pass's image into feed 0.
func (ws *Workspace) inputRow(p *pass, ln *lane, t int) {
	r := &ln.f[0]
	dst, stride := r.Row(t), r.Stride()
	switch {
	case p.x != nil:
		for c := 0; c < 3; c++ {
			copy(dst[c*stride:][:p.w], p.x.Data[((p.img*3+c)*p.h+t)*p.w:])
		}
	case p.rgb != nil:
		normRow(p.rgb.Pix[t*p.w*3:], dst, stride, p.w)
	default:
		p.yuv.RGBRow(t, ln.pix[0])
		normRow(ln.pix[0], dst, stride, p.w)
	}
	ws.put(p, ln, 0, t)
}

// stageRow computes conv row y of stage i and hands it on.
func (ws *Workspace) stageRow(p *pass, ln *lane, i, y int) {
	st := &ws.stages[i]
	if p.int8Path && st.relu {
		// A block's first convolution: its ReLU output goes straight
		// into the second's map, quantized in the kernel's store.
		ws.kq[i].RowToMap(&ln.q[st.in], y, &ln.q[st.out], ws.inv[ws.feeds[st.out].consumer])
		return
	}
	var out, res []float32
	var stride int
	switch {
	case st.out < 0:
		out, stride = ws.outputRow(p, ln, y)
		res = out // the image residual, written there first
	case st.shuffle != nil:
		out, stride = ln.wide, st.w
	default:
		r := &ln.f[st.out]
		out, stride = r.Row(y), r.Stride()
	}
	if st.res >= 0 && st.out >= 0 {
		res = ln.f[st.res].Row(y)
	}
	if p.int8Path {
		ws.kq[i].Row(&ln.q[st.in], y, out, stride, res, st.resScale)
	} else {
		ws.kf[i].Row(&ln.f[st.in], y, out, stride, res, st.resScale)
	}
	switch {
	case st.out < 0:
		ws.emit(p, ln, y)
	case st.shuffle != nil:
		o := &ln.f[st.out]
		for dy := 0; dy < 2; dy++ {
			st.shuffle.ShuffleRow(o.Row(2*y+dy), o.Stride(), ln.wide, st.w, ws.feeds[st.out].c, st.w, dy)
			ws.put(p, ln, st.out, 2*y+dy)
		}
	default:
		ws.put(p, ln, st.out, y)
	}
}

// outputRow returns where output row y goes — the output tensor's row,
// or the lane's sink row for an RGB or YUV output — and its channel
// stride, with the image residual written there: the input row, at
// Scale > 1 nearest-neighbour upsampled.
func (ws *Workspace) outputRow(p *pass, ln *lane, y int) ([]float32, int) {
	tail := &ws.stages[len(ws.stages)-1]
	s, w := tail.rate, tail.w
	var dst []float32
	var stride int
	if p.toRGB != nil || p.toYUV != nil {
		dst, stride = ln.sink, w
	} else {
		plane := tail.h * w
		dst, stride = ws.out.Data[p.img*3*plane+y*w:], plane
	}
	in := &ln.f[0]
	base := in.Row(y / s)
	for c := 0; c < 3; c++ {
		d, src := dst[c*stride:][:w], base[c*in.Stride():][:p.w]
		if s == 1 {
			copy(d, src)
			continue
		}
		for x := range d {
			d[x] = src[x/s]
		}
	}
	return dst, stride
}

// emit converts the finished output row y in the lane's sink row into
// the pass's RGB or YUV frame (a tensor output is written in place).
func (ws *Workspace) emit(p *pass, ln *lane, y int) {
	w := ws.stages[len(ws.stages)-1].w
	switch {
	case p.toRGB != nil:
		denormRow(ln.sink, w, p.toRGB.Pix[y*w*3:(y+1)*w*3])
	case p.toYUV != nil:
		denormRow(ln.sink, w, ln.pix[1+y&1])
		if y&1 == 1 {
			p.toYUV.PutRGBRows(y/2, ln.pix[1], ln.pix[2])
		}
	}
}

// normRow normalizes the w RGB pixels of pix into dst's three channels,
// stride floats apart: ToTensor's arithmetic.
func normRow(pix []uint8, dst []float32, stride, w int) {
	for c := 0; c < 3; c++ {
		d := dst[c*stride:][:w]
		for i := range d {
			d[i] = float32(pix[i*3+c])/255 - 0.5
		}
	}
}

// denormRow converts three channels of w values, stride floats apart,
// in [−0.5, 0.5] into RGB pixels: FromTensor's arithmetic.
func denormRow(src []float32, stride int, pix []uint8) {
	w := len(pix) / 3
	for c := 0; c < 3; c++ {
		for i, v := range src[c*stride:][:w] {
			v = (v + 0.5) * 255
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			pix[i*3+c] = uint8(v + 0.5)
		}
	}
}
