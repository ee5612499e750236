package distsearch

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// The wire format. Every request and every response is one frame: a fixed
// little-endian header, then the envelope's body.
//
//	offset  size  field
//	0       2     magic "HW"
//	2       1     protocol version (wireVersion)
//	3       1     op; a response echoes its request's
//	4       8     request ID; a response echoes its request's
//	12      4     body length, at most maxFrameBody
//	16      4     CRC32C (Castagnoli) of the body
//
// The body holds every field of the envelope in a fixed order, zero or not:
// signed integers as zigzag varints, unsigned ones as varints, both in their
// minimal encoding; float32 and float64 as raw IEEE bits; bools as one 0/1
// byte; strings and slices as a varint length, then the elements; maps as a
// length, then key-sorted pairs. An empty slice or map is a zero length and
// decodes to nil. So each value has exactly one encoding, and a frame that
// decodes re-encodes to its own bytes. One field depends on the op: only an
// OpInfo response's body carries IDFilter, after Centroid, as a word count
// and then the words as raw little-endian uint64s, so no other response pays
// a byte for it.
//
// The version rule: the magic and the version byte keep their place in every
// version, and a peer speaks exactly one version. A node that receives
// another version answers with an error frame of its own version and closes
// the connection, so whichever side reads the mismatch can name both.
const (
	wireVersion  = 3
	headerSize   = 20
	maxFrameBody = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errChecksum is the one frame fault that leaves the framing intact: the
// length was honoured, only the body is damaged.
var errChecksum = errors.New("frame body fails its checksum")

// versionError reports a frame of another protocol version.
type versionError struct{ got byte }

func (e *versionError) Error() string {
	return fmt.Sprintf("peer speaks wire protocol v%d, this build speaks v%d", e.got, wireVersion)
}

// frameHeader is the part of a decoded header a reader acts on.
type frameHeader struct {
	op Op
	id uint64
}

// readFrame reads one frame into buf, growing it only when the body does not
// fit, and returns the body (buf's storage whenever it was large enough). A
// body longer than buf grows with the bytes that actually arrive, so a lying
// length costs about twice what the peer sent, not what it claimed. On errChecksum the header
// and body are valid and the stream is positioned at the next frame; every
// other error leaves the stream unusable.
func readFrame(r *bufio.Reader, buf []byte) (frameHeader, []byte, error) {
	hdr, err := r.Peek(headerSize)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frameHeader{}, buf, err
	}
	h := frameHeader{
		op: Op(hdr[3]),
		id: binary.LittleEndian.Uint64(hdr[4:]),
	}
	if hdr[0] != 'H' || hdr[1] != 'W' {
		return h, buf, fmt.Errorf("bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return h, buf, &versionError{got: hdr[2]}
	}
	size := binary.LittleEndian.Uint32(hdr[12:])
	if size > maxFrameBody {
		return h, buf, fmt.Errorf("frame body of %d bytes exceeds the %d-byte cap", size, maxFrameBody)
	}
	n := int(size)
	sum := binary.LittleEndian.Uint32(hdr[16:])
	if _, err := r.Discard(headerSize); err != nil {
		return h, buf, err
	}
	body := buf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = append(body, make([]byte, min(n-len(body), max(len(body), 4096)))...)[:len(body)]
		}
		m, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return h, body, err
		}
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return h, body, errChecksum
	}
	return h, body, nil
}

// appendHeader starts a frame; sealFrame fills in the length and checksum of
// the body appended after it. start is len(dst) before appendHeader.
func appendHeader(dst []byte, op Op, id uint64) []byte {
	dst = append(dst, 'H', 'W', wireVersion, byte(op))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

func sealFrame(frame []byte, start int) []byte {
	body := frame[start+headerSize:]
	binary.LittleEndian.PutUint32(frame[start+12:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[start+16:], crc32.Checksum(body, castagnoli))
	return frame
}

// appendRequest appends req as one frame.
func appendRequest(dst []byte, id uint64, req *Request) []byte {
	start := len(dst)
	dst = appendHeader(dst, req.Op, id)
	dst = appendFloats(dst, req.Query)
	dst = binary.AppendVarint(dst, int64(req.K))
	dst = binary.AppendVarint(dst, int64(req.NProbe))
	dst = binary.AppendUvarint(dst, uint64(len(req.Queries)))
	for _, q := range req.Queries {
		dst = appendFloats(dst, q)
	}
	dst = binary.AppendVarint(dst, req.ID)
	dst = binary.AppendUvarint(dst, req.TraceID)
	dst = appendBool(dst, req.Grouped)
	return sealFrame(dst, start)
}

// decodeRequest decodes a request body; op comes from the frame header. On
// error req is left zero, so nothing of a damaged request is acted on.
func decodeRequest(op Op, body []byte, req *Request) error {
	r := wireReader{b: body}
	*req = Request{Op: op}
	req.Query = r.floats()
	req.K = r.int()
	req.NProbe = r.int()
	if n := r.count(1); n > maxRequestBatch {
		r.fail("batch of %d queries exceeds %d", n, maxRequestBatch)
	} else if n > 0 {
		req.Queries = make([][]float32, n)
		for i := range req.Queries {
			req.Queries[i] = r.floats()
		}
	}
	req.ID = r.varint()
	req.TraceID = r.uvarint()
	req.Grouped = r.bool()
	if err := r.done(); err != nil {
		*req = Request{}
		return err
	}
	return nil
}

// appendResponse appends resp as one frame answering request (op, id); its
// IDFilter travels only when op is OpInfo. Spans are the body's last field so
// that a traced node can time the encode itself: with a non-zero encStart,
// the last span's DurNanos is not read from resp but measured from encStart
// to the moment it is written.
func appendResponse(dst []byte, id uint64, op Op, resp *Response, encStart time.Time) []byte {
	start := len(dst)
	dst = appendHeader(dst, op, id)
	dst = appendString(dst, resp.Err)
	for _, v := range [...]int64{int64(resp.ShardID), int64(resp.Size), int64(resp.Dim)} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = appendNeighbors(dst, resp.Neighbors)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Batch)))
	for _, ns := range resp.Batch {
		dst = appendNeighbors(dst, ns)
	}
	dst = appendFloats(dst, resp.Centroid)
	if op == OpInfo {
		dst = binary.AppendUvarint(dst, uint64(len(resp.IDFilter)))
		for _, w := range resp.IDFilter {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	dst = appendBool(dst, resp.OK)
	for _, v := range [...]int64{resp.SampleServed, resp.DeepServed, resp.MutationsServed,
		int64(resp.Tombstones), resp.ServerNanos, resp.Scanned} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Telemetry)))
	if len(resp.Telemetry) > 0 {
		keys := make([]string, 0, len(resp.Telemetry))
		for k := range resp.Telemetry {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(resp.Telemetry[k]))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Families)))
	for _, f := range resp.Families {
		dst = appendString(dst, f.Name)
		dst = appendString(dst, f.Help)
		dst = binary.AppendVarint(dst, int64(f.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(f.Buckets)))
		for _, b := range f.Buckets {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b))
		}
		dst = binary.AppendUvarint(dst, uint64(len(f.Series)))
		for _, s := range f.Series {
			dst = appendString(dst, s.Labels)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Value))
			dst = binary.AppendVarint(dst, s.Count)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Sum))
			dst = binary.AppendUvarint(dst, uint64(len(s.BucketCounts)))
			for _, c := range s.BucketCounts {
				dst = binary.AppendVarint(dst, c)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Costs)))
	for _, c := range resp.Costs {
		for _, v := range [...]int64{c.Cells, c.SharedCells, c.CodesExclusive, c.CodesAmortized, c.ScanNanos, c.WireBytes} {
			dst = binary.AppendVarint(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Spans)))
	for i, s := range resp.Spans {
		dst = appendString(dst, s.Name)
		dst = binary.AppendVarint(dst, int64(s.Node))
		dst = binary.AppendVarint(dst, s.OffsetNanos)
		if i == len(resp.Spans)-1 && !encStart.IsZero() {
			s.DurNanos = now().Sub(encStart).Nanoseconds()
		}
		dst = binary.AppendVarint(dst, s.DurNanos)
	}
	return sealFrame(dst, start)
}

// decodeResponse decodes the body of a response to op. It allocates the
// slices and maps the body holds and nothing else.
func decodeResponse(op Op, body []byte, resp *Response) error {
	r := wireReader{b: body}
	*resp = Response{Err: r.string()}
	resp.ShardID, resp.Size, resp.Dim = r.int(), r.int(), r.int()
	resp.Neighbors = r.neighbors()
	if n := r.count(1); n > 0 {
		resp.Batch = make([][]vec.Neighbor, n)
		for i := range resp.Batch {
			resp.Batch[i] = r.neighbors()
		}
	}
	resp.Centroid = r.floats()
	if op == OpInfo {
		resp.IDFilter = r.words()
	}
	resp.OK = r.bool()
	resp.SampleServed, resp.DeepServed, resp.MutationsServed = r.varint(), r.varint(), r.varint()
	resp.Tombstones = r.int()
	resp.ServerNanos, resp.Scanned = r.varint(), r.varint()
	if n := r.count(1 + 8); n > 0 {
		resp.Telemetry = make(map[string]float64, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := r.string()
			if i > 0 && k <= prev {
				r.fail("telemetry keys out of order at %q", k)
			}
			resp.Telemetry[k], prev = r.float64(), k
		}
	}
	if n := r.count(5); n > 0 {
		resp.Families = make([]telemetry.FamilySnapshot, n)
		for i := range resp.Families {
			f := &resp.Families[i]
			f.Name, f.Help, f.Kind = r.string(), r.string(), telemetry.Kind(r.int())
			if m := r.count(8); m > 0 {
				f.Buckets = make([]float64, m)
				for j := range f.Buckets {
					f.Buckets[j] = r.float64()
				}
			}
			if m := r.count(1 + 8 + 1 + 8 + 1); m > 0 {
				f.Series = make([]telemetry.SeriesSnapshot, m)
				for j := range f.Series {
					s := &f.Series[j]
					s.Labels, s.Value, s.Count, s.Sum = r.string(), r.float64(), r.varint(), r.float64()
					if c := r.count(1); c > 0 {
						s.BucketCounts = make([]int64, c)
						for k := range s.BucketCounts {
							s.BucketCounts[k] = r.varint()
						}
					}
				}
			}
		}
	}
	if n := r.count(6); n > 0 {
		resp.Costs = make([]telemetry.QueryCost, n)
		for i := range resp.Costs {
			c := &resp.Costs[i]
			c.Cells, c.SharedCells, c.CodesExclusive = r.varint(), r.varint(), r.varint()
			c.CodesAmortized, c.ScanNanos, c.WireBytes = r.varint(), r.varint(), r.varint()
		}
	}
	if n := r.count(4); n > 0 {
		resp.Spans = make([]WireSpan, n)
		for i := range resp.Spans {
			s := &resp.Spans[i]
			s.Name, s.Node, s.OffsetNanos, s.DurNanos = r.string(), r.int(), r.varint(), r.varint()
		}
	}
	return r.done()
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, v []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

func appendNeighbors(dst []byte, ns []vec.Neighbor) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = binary.AppendVarint(dst, n.ID)
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(n.Score))
	}
	return dst
}

// wireReader consumes one frame body. The first malformed field records the
// error and empties the reader, so every later read returns a zero value and
// a decoder checks the error once, in done.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed frame body: "+format, args...)
	}
	r.b = nil
}

// done reports the first error, or trailing bytes after the last field.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *wireReader) next(n int) []byte {
	if len(r.b) < n {
		r.fail("truncated")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// uvarint refuses overlong encodings as well as overflow: a value has one
// encoding, so a decoded body re-encodes to the same bytes.
func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) bool() bool {
	p := r.next(1)
	if p == nil || p[0] > 1 {
		r.fail("bad bool")
		return false
	}
	return p[0] == 1
}

func (r *wireReader) float64() float64 {
	if p := r.next(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// count reads a length prefix of elements that take at least least bytes
// each and refuses one the rest of the body cannot hold, before anything is
// allocated.
func (r *wireReader) count(least int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/least) {
		r.fail("length %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *wireReader) string() string {
	return string(r.next(r.count(1)))
}

func (r *wireReader) floats() []float32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	v := make([]float32, n)
	p := r.next(4 * n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return v
}

func (r *wireReader) words() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	v := make([]uint64, n)
	p := r.next(8 * n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return v
}

func (r *wireReader) neighbors() []vec.Neighbor {
	n := r.count(1 + 4)
	if n == 0 {
		return nil
	}
	ns := make([]vec.Neighbor, n)
	for i := range ns {
		ns[i].ID = r.varint()
		if p := r.next(4); p != nil {
			ns[i].Score = math.Float32frombits(binary.LittleEndian.Uint32(p))
		}
	}
	return ns
}
