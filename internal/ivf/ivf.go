// Package ivf implements an Inverted File (IVF) approximate nearest-neighbor
// index, the index family the paper builds Hermes on: a k-means coarse
// quantizer partitions the vector space into nlist cells, vectors are stored
// (optionally compressed by a quantizer from internal/quant) in per-cell
// inverted lists, and a query scans only the nProbe cells whose centroids are
// closest to it.
//
// The nProbe runtime parameter is central to Hermes' hierarchical search: the
// sample phase uses a small nProbe (default 8) and the deep phase a large one
// (default 128).
package ivf

import (
	"fmt"
	"sync"

	"repro/internal/kmeans"
	"repro/internal/quant"
	"repro/internal/vec"
)

// Config describes an IVF index before training.
type Config struct {
	Dim int
	// NList is the number of coarse cells. The paper uses nlist = 4*sqrt(n);
	// if NList <= 0 Train derives it with DefaultNList.
	NList int
	// Quantizer compresses stored vectors; nil means Flat (no compression).
	Quantizer quant.Quantizer
	// Seed drives coarse k-means initialization.
	Seed int64
	// TrainSample, if > 0, caps the number of vectors used to train the
	// coarse quantizer.
	TrainSample int
	// KMeansIters bounds coarse training iterations (default 20).
	KMeansIters int
	// ByResidual encodes each vector's residual from its coarse centroid
	// instead of the raw vector (the FAISS IVF-PQ convention). Residuals
	// concentrate near the origin, so a given quantization budget loses
	// less information — most useful with PQ and SQ4 codes. Searches then
	// evaluate distances per probed cell with the query's own residual.
	ByResidual bool
}

// DefaultNList returns the paper's nlist heuristic 4*sqrt(n), clamped to at
// least 1 and at most n.
func DefaultNList(n int) int {
	if n <= 0 {
		return 1
	}
	nlist := 1
	for nlist*nlist < 16*n { // nlist = ceil(4*sqrt(n))
		nlist++
	}
	if nlist > n {
		nlist = n
	}
	return nlist
}

// SearchStats reports the work done by one query, the quantity latency and
// energy models are driven by.
type SearchStats struct {
	CellsProbed    int
	VectorsScanned int
}

// Index is a trained IVF index. Add and Search may be used concurrently with
// other Searches, but Add must not race with Search.
type Index struct {
	cfg       Config
	centroids *vec.Matrix
	lists     []invList
	count     int
	trained   bool
	// deadPos holds tombstoned slot positions per inverted list, sorted
	// ascending, so scans skip them with a cursor instead of a per-vector
	// map lookup (see mutate.go). nil until the first Remove.
	deadPos   [][]uint32
	deadCount int
	// pool recycles Searcher scratch across Search calls.
	pool sync.Pool
}

type invList struct {
	ids   []int64
	codes []byte // count * codeSize, contiguous
}

// New returns an untrained index.
func New(cfg Config) (*Index, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("ivf: Dim must be positive, got %d", cfg.Dim)
	}
	if cfg.Quantizer == nil {
		cfg.Quantizer = quant.NewFlat(cfg.Dim)
	}
	if cfg.Quantizer.Dim() != cfg.Dim {
		return nil, fmt.Errorf("ivf: quantizer dim %d != index dim %d", cfg.Quantizer.Dim(), cfg.Dim)
	}
	if cfg.KMeansIters <= 0 {
		cfg.KMeansIters = 20
	}
	return &Index{cfg: cfg}, nil
}

// Train fits the coarse quantizer (and the vector quantizer) on data.
func (ix *Index) Train(data *vec.Matrix) error {
	_, err := ix.train(data)
	return err
}

// TrainAndAdd trains the index on data, as Train does, then stores row i of
// data under ids[i] (under i when ids is nil), as Add would, in row order.
// When the coarse quantizer trained on every row (TrainSample 0 or at least
// the row count), each row's cell is the training's final assignment, the
// cell Add's nearest-centroid search would pick, so no row is assigned twice
// and the index bytes equal Train followed by Add.
func (ix *Index) TrainAndAdd(data *vec.Matrix, ids []int64) error {
	if ids != nil && data != nil && len(ids) != data.Len() {
		return fmt.Errorf("ivf: TrainAndAdd has %d ids for %d rows", len(ids), data.Len())
	}
	cells, err := ix.train(data)
	if err != nil {
		return err
	}
	if cells == nil {
		cells = kmeans.AssignAll(data, ix.centroids)
	}
	for i, cell := range cells {
		id := int64(i)
		if ids != nil {
			id = ids[i]
		}
		ix.add(id, data.Row(i), cell)
	}
	return nil
}

// train is Train. It returns each row's coarse cell when it knows them
// without another search, and nil otherwise.
func (ix *Index) train(data *vec.Matrix) ([]int, error) {
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("ivf: Train requires data")
	}
	if data.Dim != ix.cfg.Dim {
		return nil, fmt.Errorf("ivf: data dim %d != index dim %d", data.Dim, ix.cfg.Dim)
	}
	nlist := ix.cfg.NList
	if nlist <= 0 {
		nlist = DefaultNList(data.Len())
	}
	if nlist > data.Len() {
		nlist = data.Len()
	}
	res, err := kmeans.Train(data, kmeans.Config{
		K:          nlist,
		Seed:       ix.cfg.Seed,
		PlusPlus:   true,
		MaxIters:   ix.cfg.KMeansIters,
		SampleSize: ix.cfg.TrainSample,
	})
	if err != nil {
		return nil, fmt.Errorf("ivf: coarse training: %w", err)
	}
	// k-means assigned every row of data unless it trained on a sample.
	var cells []int
	if len(res.Assign) == data.Len() {
		cells = res.Assign
	}
	trainSet := data
	if ix.cfg.ByResidual {
		// Train the quantizer on residuals, the distribution it will
		// actually encode.
		if cells == nil {
			cells = kmeans.AssignAll(data, res.Centroids)
		}
		trainSet = vec.NewMatrix(data.Len(), data.Dim)
		for i, cell := range cells {
			row := trainSet.Row(i)
			copy(row, data.Row(i))
			centroid := res.Centroids.Row(cell)
			for d := range row {
				row[d] -= centroid[d]
			}
		}
	}
	if err := ix.cfg.Quantizer.Train(trainSet); err != nil {
		return nil, fmt.Errorf("ivf: quantizer training: %w", err)
	}
	ix.centroids = res.Centroids
	ix.lists = make([]invList, nlist)
	ix.cfg.NList = nlist
	ix.trained = true
	return cells, nil
}

// Trained reports whether Train has completed.
func (ix *Index) Trained() bool { return ix.trained }

// NList returns the number of coarse cells (0 before training).
func (ix *Index) NList() int { return ix.cfg.NList }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.cfg.Dim }

// Len returns the number of stored vectors.
func (ix *Index) Len() int { return ix.count }

// QuantizerName reports the compression scheme in use.
func (ix *Index) QuantizerName() string { return ix.cfg.Quantizer.Name() }

// Add stores a vector under id.
func (ix *Index) Add(id int64, v []float32) error {
	if !ix.trained {
		return fmt.Errorf("ivf: Add before Train")
	}
	if len(v) != ix.cfg.Dim {
		return fmt.Errorf("ivf: Add dim %d != %d", len(v), ix.cfg.Dim)
	}
	cell, _ := ix.centroids.ArgMinL2(v)
	ix.add(id, v, cell)
	return nil
}

// add stores v under id in the given coarse cell.
func (ix *Index) add(id int64, v []float32, cell int) {
	cs := ix.cfg.Quantizer.CodeSize()
	l := &ix.lists[cell]
	l.ids = append(l.ids, id)
	start := len(l.codes)
	l.codes = append(l.codes, make([]byte, cs)...)
	toEncode := v
	if ix.cfg.ByResidual {
		res := make([]float32, len(v))
		centroid := ix.centroids.Row(cell)
		for d := range v {
			res[d] = v[d] - centroid[d]
		}
		toEncode = res
	}
	ix.cfg.Quantizer.Encode(toEncode, l.codes[start:start+cs])
	ix.count++
}

// AddBatch stores all rows of m with IDs startID, startID+1, ...
func (ix *Index) AddBatch(startID int64, m *vec.Matrix) error {
	for i := 0; i < m.Len(); i++ {
		if err := ix.Add(startID+int64(i), m.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// Search returns the approximate k nearest neighbors of q, probing the
// nProbe closest cells. Results are best (smallest distance) first.
func (ix *Index) Search(q []float32, k, nProbe int) []vec.Neighbor {
	res, _ := ix.SearchWithStats(q, k, nProbe)
	return res
}

// SearchWithStats is Search plus work accounting. It draws a Searcher from
// the index's internal pool, so steady-state queries allocate only the
// returned result slice; callers that also want to amortize that should hold
// their own Searcher and use its append API.
func (ix *Index) SearchWithStats(q []float32, k, nProbe int) ([]vec.Neighbor, SearchStats) {
	s := ix.getSearcher()
	defer ix.pool.Put(s)
	return s.Search(nil, q, k, nProbe)
}

// ListSizes returns the per-cell vector counts, used to study cell imbalance.
func (ix *Index) ListSizes() []int {
	sizes := make([]int, len(ix.lists))
	for i := range ix.lists {
		sizes[i] = len(ix.lists[i].ids)
	}
	return sizes
}

// MemoryBytes reports the index footprint: centroids, codes, and IDs. This
// feeds the Fig. 4 and Fig. 7 memory comparisons.
func (ix *Index) MemoryBytes() int64 {
	var total int64
	if ix.centroids != nil {
		total += ix.centroids.Bytes()
	}
	for i := range ix.lists {
		total += int64(len(ix.lists[i].codes))
		total += int64(len(ix.lists[i].ids)) * 8
	}
	return total
}

// Centroid returns a read-only view of cell c's centroid.
func (ix *Index) Centroid(c int) []float32 { return ix.centroids.Row(c) }
