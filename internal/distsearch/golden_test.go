package distsearch

// The wire's schema guard. Every frame shape the protocol carries is
// recorded byte for byte in testdata/wire_v<wireVersion>.golden, one named
// frame per line in hex, and the tests here compare the codec with it from
// both sides: each envelope must encode to exactly its recorded bytes, and
// each recorded frame must decode to its envelope and re-encode to itself.
//
// Within a version the recorded bytes are immutable: -update-golden records
// frames the file does not have yet and refuses to rewrite one it has. A
// change that moves a byte of a recorded frame (a reordered, retyped, added
// or removed field) is therefore a wireVersion bump, recorded in a new file
// that replaces the old one:
//
//	go test ./internal/distsearch -run TestDistsearchWireLockCurrent -update-golden

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "record frames missing from testdata/wire_v<version>.golden (recorded frames are never rewritten)")

// goldenFrame is one named envelope of the golden file and the frame header
// it travels under.
type goldenFrame struct {
	name string
	id   uint64
	op   Op  // a response's header op; a request's is its Op field
	env  any // *Request or *Response
}

// goldenFrames returns every recorded envelope: the fuzz seeds, the
// reflection-filled pair of TestWireRoundTripComplete, one OpSample and one
// OpDeep exchange, and one OpInfo handshake whose answer carries an id
// filter, which pins the filter's hash and probes as well as its encoding.
func goldenFrames(t testing.TB) []goldenFrame {
	req, resp := filled(t)
	ex := searchExchanges()
	info := newIDFilter(5)
	for _, id := range []int64{811, 12, 4096, 7, 300001} {
		info.add(id)
	}
	return []goldenFrame{
		{"seed_request", 42, OpDeepBatch, seedRequest()},
		{"seed_response", 42, OpDeepBatch, seedResponse()},
		{"filled_request", 99, req.Op, req},
		{"filled_response", 7, OpInfo, resp},
		{"sample_request", 3, OpSample, ex[0].req},
		{"sample_response", 3, OpSample, ex[0].resp},
		{"deep_request", 4, OpDeep, ex[1].req},
		{"deep_response", 4, OpDeep, ex[1].resp},
		{"info_request", 1, OpInfo, &Request{Op: OpInfo}},
		{"info_response", 1, OpInfo, &Response{ShardID: 3, Size: 5, Dim: 4,
			Centroid: []float32{0.5, -1.25, 3, 0}, IDFilter: info.words}},
	}
}

func (g goldenFrame) encode() []byte {
	if req, ok := g.env.(*Request); ok {
		return appendRequest(nil, g.id, req)
	}
	return appendResponse(nil, g.id, g.op, g.env.(*Response), time.Time{})
}

// encodes checks that the codec encodes g to exactly the recorded frame.
func (g goldenFrame) encodes(frame []byte) error {
	got := g.encode()
	if bytes.Equal(got, frame) {
		return nil
	}
	// The first difference, skipping the checksum, which differs whenever
	// the body does.
	at := 0
	for at < min(len(got), len(frame)) && (got[at] == frame[at] || at >= 16 && at < headerSize) {
		at++
	}
	return fmt.Errorf("frame %s: encodes to %d bytes that differ from the %d recorded, first at byte %d", g.name, len(got), len(frame), at)
}

// decodes checks that the recorded frame passes readFrame with g's header,
// decodes to g's envelope bit for bit, and re-encodes to itself.
func (g goldenFrame) decodes(frame []byte) error {
	h, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		return fmt.Errorf("frame %s: %v", g.name, err)
	}
	if h.id != g.id || h.op != g.op {
		return fmt.Errorf("frame %s: header op %d id %d, want op %d id %d", g.name, h.op, h.id, g.op, g.id)
	}
	got := reflect.New(reflect.TypeOf(g.env).Elem())
	switch env := got.Interface().(type) {
	case *Request:
		err = decodeRequest(h.op, body, env)
	case *Response:
		err = decodeResponse(h.op, body, env)
	}
	if err != nil {
		return fmt.Errorf("frame %s: %v", g.name, err)
	}
	if !sameBits(got.Elem(), reflect.ValueOf(g.env).Elem()) {
		return fmt.Errorf("frame %s: decodes to a different envelope\n got %+v\nwant %+v", g.name, got.Elem(), reflect.ValueOf(g.env).Elem())
	}
	if re := (goldenFrame{g.name, h.id, h.op, got.Interface()}).encode(); !bytes.Equal(re, frame) {
		return fmt.Errorf("frame %s: re-encodes to different bytes", g.name)
	}
	return nil
}

// encodeErrors checks the golden file from the codec's side: every envelope
// encodes to exactly its recorded frame, and every recorded frame has an
// envelope. Each error names its frame.
func encodeErrors(recorded map[string][]byte, frames []goldenFrame) []error {
	var errs []error
	known := make(map[string]bool, len(frames))
	for _, g := range frames {
		known[g.name] = true
		frame, ok := recorded[g.name]
		if !ok {
			errs = append(errs, fmt.Errorf("frame %s: not recorded", g.name))
		} else if err := g.encodes(frame); err != nil {
			errs = append(errs, err)
		}
	}
	var extra []string
	for name := range recorded {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		errs = append(errs, fmt.Errorf("frame %s: recorded, but no envelope has that name", name))
	}
	return errs
}

// decodeErrors checks the golden file from the peer's side: every recorded
// frame that has an envelope decodes to it and re-encodes to itself.
func decodeErrors(recorded map[string][]byte, frames []goldenFrame) []error {
	var errs []error
	for _, g := range frames {
		if frame, ok := recorded[g.name]; ok {
			if err := g.decodes(frame); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

func goldenPath() string {
	return filepath.Join("testdata", fmt.Sprintf("wire_v%d.golden", wireVersion))
}

// parseGolden reads a golden file into its frame names, in file order, and
// the frames by name. Blank lines and # comments are skipped.
func parseGolden(data []byte) ([]string, map[string][]byte, error) {
	var names []string
	frames := make(map[string][]byte)
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexFrame, ok := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexFrame)
		if !ok || err != nil {
			return nil, nil, fmt.Errorf("line %d: want \"<name> <hex frame>\"", i+1)
		}
		if _, dup := frames[name]; dup {
			return nil, nil, fmt.Errorf("line %d: frame %s recorded twice", i+1, name)
		}
		names = append(names, name)
		frames[name] = frame
	}
	return names, frames, nil
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	_, recorded, err := parseGolden(data)
	if err != nil {
		t.Fatalf("%s: %v", goldenPath(), err)
	}
	return recorded
}

// recordGolden appends the frames the golden file does not have yet and
// refuses to change a frame it has: within a version, bytes are immutable.
func recordGolden(frames []goldenFrame) error {
	data, err := os.ReadFile(goldenPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	names, recorded, err := parseGolden(data)
	if err != nil {
		return fmt.Errorf("%s: %v", goldenPath(), err)
	}
	for _, g := range frames {
		frame, ok := recorded[g.name]
		if !ok {
			names = append(names, g.name)
			recorded[g.name] = g.encode()
		} else if err := g.encodes(frame); err != nil {
			return fmt.Errorf("%v: refusing to re-record, wire v%d bytes are immutable; a wire change is a wireVersion bump", err, wireVersion)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Golden frames of wire protocol v%d: one named frame per line, in hex.\n", wireVersion)
	b.WriteString("# A recorded frame never changes within a version. Add new frames with\n")
	b.WriteString("#   go test ./internal/distsearch -run TestDistsearchWireLockCurrent -update-golden\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s %x\n", name, recorded[name])
	}
	return os.WriteFile(goldenPath(), []byte(b.String()), 0o644)
}

// TestDistsearchWireLockCurrent: each envelope encodes to exactly its
// committed frame, and the only golden file is the current version's.
func TestDistsearchWireLockCurrent(t *testing.T) {
	frames := goldenFrames(t)
	if *updateGolden {
		if err := recordGolden(frames); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range encodeErrors(readGolden(t), frames) {
		t.Error(err)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "wire_v*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f != goldenPath() {
			t.Errorf("%s: golden frames of another version; this build speaks only wire v%d", f, wireVersion)
		}
	}
}

// TestWireLockClean: each committed frame passes readFrame, decodes to its
// envelope bit for bit, and re-encodes to its own bytes.
func TestWireLockClean(t *testing.T) {
	for _, err := range decodeErrors(readGolden(t), goldenFrames(t)) {
		t.Error(err)
	}
}

// TestWireLockBroken: the comparison rejects deliberately broken goldens,
// each with errors that name the broken frame. The K/NProbe swap is the case
// that matters: it survives a round trip and the fuzz targets, because both
// codec halves swap together, and only recorded bytes can catch it.
func TestWireLockBroken(t *testing.T) {
	frames := goldenFrames(t)
	good := make(map[string][]byte, len(frames))
	for _, g := range frames {
		good[g.name] = g.encode()
	}
	if errs := append(encodeErrors(good, frames), decodeErrors(good, frames)...); len(errs) > 0 {
		t.Fatalf("freshly encoded goldens fail the comparison: %v", errs)
	}

	deep := searchExchanges()[1].req
	swapped := *deep
	swapped.K, swapped.NProbe = deep.NProbe, deep.K
	// K is the first varint after the query; the uvarint of a small K is
	// one byte, as its zigzag encoding 2K is.
	retyped := bytes.Clone(good["deep_request"])
	k := headerSize + 1 + 4*len(deep.Query)
	if retyped[k] != byte(2*deep.K) {
		t.Fatalf("byte %d is %#x, not the zigzag varint of K=%d", k, retyped[k], deep.K)
	}
	retyped[k] = byte(deep.K)
	sealFrame(retyped, 0)
	version := bytes.Clone(good["sample_response"])
	version[2] = wireVersion + 1

	for _, tc := range []struct {
		name, frame string
		bytes       []byte // recorded as the frame; nil drops it
		want        string
	}{
		{"K/NProbe swap", "deep_request", appendRequest(nil, 4, &swapped), "decodes to a different envelope"},
		{"uvarint for a zigzag varint", "deep_request", retyped, "decodes to a different envelope"},
		{"missing frame", "seed_response", nil, "not recorded"},
		{"extra frame", "stale_request", good["seed_request"], "no envelope has that name"},
		{"another version", "sample_response", version, fmt.Sprintf("speaks wire protocol v%d", wireVersion+1)},
	} {
		broken := maps.Clone(good)
		if tc.bytes == nil {
			delete(broken, tc.frame)
		} else {
			broken[tc.frame] = tc.bytes
		}
		errs := append(encodeErrors(broken, frames), decodeErrors(broken, frames)...)
		if len(errs) == 0 {
			t.Errorf("%s: the comparison accepts it", tc.name)
		}
		wanted := false
		for _, err := range errs {
			if !strings.HasPrefix(err.Error(), "frame "+tc.frame+": ") {
				t.Errorf("%s: error does not name frame %s: %v", tc.name, tc.frame, err)
			}
			wanted = wanted || strings.Contains(err.Error(), tc.want)
		}
		if len(errs) > 0 && !wanted {
			t.Errorf("%s: no error says %q: %v", tc.name, tc.want, errs)
		}
		t.Logf("%s: rejected with %q", tc.name, errs)
	}
}
