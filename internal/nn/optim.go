package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba). EDSR and the VAE are
// both trained with Adam in the paper's reference implementation.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	t        int
	m, v     map[*Param][]float32
	GradClip float64 // if > 0, clip each gradient element to ±GradClip
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float32), v: make(map[*Param][]float32),
	}
}

// Step applies one Adam update to every parameter.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		p.grid = nil
		m, ok := o.m[p]
		if !ok {
			m = make([]float32, p.W.Len())
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float32, p.W.Len())
			o.v[p] = v
		}
		b1, b2 := float32(o.Beta1), float32(o.Beta2)
		clip := float32(o.GradClip)
		for i, g := range p.grad().Data {
			if clip > 0 {
				if g > clip {
					g = clip
				} else if g < -clip {
					g = -clip
				}
			}
			m[i] = float32(b1*m[i]) + float32((1-b1)*g)
			v[i] = float32(b2*v[i]) + float32((1-b2)*g*g)
			mh := float64(m[i]) / bc1
			vh := float64(v[i]) / bc2
			p.W.Data[i] -= float32(o.LR * mh / (math.Sqrt(vh) + o.Eps))
		}
	}
}
