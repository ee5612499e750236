package distsearch

// Fuzz targets for the two frame decoders. Both ends of the protocol read
// frames straight from a TCP peer (Node.serveConn, nodeClient), so decoding
// must tolerate arbitrary bytes: a malformed, truncated or damaged frame may
// only yield an error, never a panic or an allocation the input does not pay
// for. Every value has one encoding, so whatever decodes must re-encode to
// exactly the bytes it came from. The seeds are every golden frame
// (golden_test.go) plus one damaged variant of each per fault class, so even
// `go test` (which runs only the seed corpus) exercises each class. The
// committed corpus in testdata/fuzz adds a valid and a truncated frame per
// target.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// seedRequest is a fully-populated Request: every field non-zero so the
// damaged variants can land in any of them.
func seedRequest() *Request {
	return &Request{
		Op:      OpDeepBatch,
		Query:   []float32{0.25, -1, 3.5},
		K:       10,
		NProbe:  32,
		Queries: [][]float32{{1, 2}, {3, 4}},
		ID:      -77,
		TraceID: 0xfeedbeef,
		Grouped: true,
	}
}

func seedResponse() *Response {
	return &Response{
		Err:          "boom",
		ShardID:      3,
		Size:         1024,
		Dim:          8,
		Neighbors:    []vec.Neighbor{{ID: 5, Score: 0.5}},
		Batch:        [][]vec.Neighbor{{{ID: 1, Score: 1}}, nil},
		Centroid:     []float32{0.1, 0.2},
		OK:           true,
		SampleServed: 9, DeepServed: 8, MutationsServed: 7,
		Tombstones:  2,
		ServerNanos: 12345,
		Telemetry:   map[string]float64{"up": 1},
		Scanned:     4096,
		Spans:       []WireSpan{{Name: "list_scan", Node: 3, OffsetNanos: 10, DurNanos: 20}},
		Families: []telemetry.FamilySnapshot{{
			Name: "hermes_test_total", Kind: telemetry.KindCounter,
			Series: []telemetry.SeriesSnapshot{{Value: 42}},
		}},
		Costs: []telemetry.QueryCost{{Cells: 2, CodesExclusive: 100, CodesAmortized: 50}},
	}
}

// addSeeds registers the valid frame plus one variant per fault class: a
// truncated frame, a flipped body bit (checksum mismatch), a length over the
// cap, another protocol version, and an unknown op.
func addSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[headerSize+(len(valid)-headerSize)/2] ^= 0x40
	f.Add(flipped)
	inflated := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(inflated[12:], maxFrameBody+1)
	f.Add(inflated)
	version := bytes.Clone(valid)
	version[2]++
	f.Add(version)
	op := bytes.Clone(valid)
	op[3] = 0xee
	f.Add(op)
}

// asFrame reads data as one frame. Input that is not a frame is taken as a
// bare body instead, so random bytes also reach the body decoders
// past the checksum. Either way the body must decode to an error or to a
// value that re-encodes to it, and a frame's header then re-encodes too:
// magic and version are fixed, op and ID are echoed, length and checksum
// follow from the body.
func asFrame(data []byte) (frameHeader, []byte) {
	h, body, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
	if err != nil {
		return frameHeader{op: OpDeepBatch}, data
	}
	return h, body
}

func FuzzRequestDecode(f *testing.F) {
	for _, g := range goldenFrames(f) {
		if _, ok := g.env.(*Request); ok {
			addSeeds(f, g.encode())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body := asFrame(data)
		var req Request
		if decodeRequest(h.op, body, &req) != nil {
			return
		}
		if got := appendRequest(nil, h.id, &req)[headerSize:]; !bytes.Equal(got, body) {
			t.Fatalf("decoded request re-encodes differently:\n got %x\nwant %x", got, body)
		}
	})
}

// overclaimedFilterFrame is an OpInfo response frame, intact but for its
// IDFilter word count, which claims words words where two (16 bytes) follow:
// the decoder must refuse it before allocating. The count is the body's
// eighth byte, after the empty Err, the three info ints and the empty
// Neighbors, Batch and Centroid.
func overclaimedFilterFrame(tb testing.TB, words uint64) []byte {
	frame := appendResponse(nil, 5, OpInfo, &Response{IDFilter: []uint64{1, 2}}, time.Time{})
	at := headerSize + 7
	if frame[at] != 2 {
		tb.Fatalf("byte %d is %#x, not the filter's word count 2", at, frame[at])
	}
	frame = append(binary.AppendUvarint(bytes.Clone(frame[:at]), words), frame[at+1:]...)
	return sealFrame(frame, 0)
}

func FuzzResponseDecode(f *testing.F) {
	for _, g := range goldenFrames(f) {
		if _, ok := g.env.(*Response); ok {
			addSeeds(f, g.encode())
		}
	}
	// Both claim more words than remain: one more than the body has bytes,
	// one more than its bytes hold words but fewer than its bytes.
	f.Add(overclaimedFilterFrame(f, 1<<40))
	f.Add(overclaimedFilterFrame(f, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body := asFrame(data)
		// Every body is also read as an OpInfo response's, the one op whose
		// body carries IDFilter, so bare bytes reach that decoder too.
		for _, op := range []Op{h.op, OpInfo} {
			var resp Response
			if decodeResponse(op, body, &resp) != nil {
				continue
			}
			if got := appendResponse(nil, h.id, op, &resp, time.Time{})[headerSize:]; !bytes.Equal(got, body) {
				t.Fatalf("decoded op %d response re-encodes differently:\n got %x\nwant %x", op, got, body)
			}
		}
	})
}
