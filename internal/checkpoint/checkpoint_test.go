package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/framelog"
	"tieredpricing/internal/netflow"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/wal"
)

// testState builds a distinguishable State; epoch also salts the
// window contents so two states with different epochs differ fully.
func testState(epoch int64) *State {
	return &State{
		CreatedAt: time.Unix(1700000000+epoch, 0).UTC(),
		Epoch:     epoch,
		WAL:       wal.Position{Segment: uint64(epoch + 1), Offset: 100 * epoch},
		Window: stream.WindowState{
			SlotNanos: int64(time.Hour),
			NumSlots:  4,
			Records:   int(10 * epoch),
			Slots: []stream.SlotState{{
				Index: 400000 + epoch,
				Seen: []netflow.FlowKey{{
					SrcAddr: netip.AddrFrom4([4]byte{10, 0, 0, byte(epoch)}),
					DstAddr: netip.AddrFrom4([4]byte{192, 168, 0, 1}),
					SrcPort: 1234, DstPort: 443, Proto: 6,
				}},
				Aggs: []netflow.Aggregate{{
					Key: "a>b", Octets: uint64(1000 * epoch), Records: 1,
					SrcAddr: netip.AddrFrom4([4]byte{10, 0, 0, byte(epoch)}),
					DstAddr: netip.AddrFrom4([4]byte{192, 168, 0, 1}),
				}},
			}},
		},
		Table:   json.RawMessage(`{"tiers":[{"price":1.5}]}`),
		History: json.RawMessage(fmt.Sprintf(`[{"at":"2023-11-14T22:13:20Z","epoch":%d,"table":{"tiers":[{"price":1.5}]}}]`, epoch)),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testState(3)
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	// Determinism: encoding the same state twice is byte-identical.
	again, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	data, err := Encode(testState(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"short":        func(b []byte) []byte { return b[:headerSize-1] },
		"bad-magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"crc-mismatch": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-5] },
		"bad-json": func(b []byte) []byte {
			// Valid frame around invalid JSON must still be rejected.
			return reframe([]byte("{not json"))
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			cp := append([]byte(nil), data...)
			if _, err := Decode(damage(cp)); err == nil {
				t.Error("damaged checkpoint decoded cleanly")
			}
		})
	}
}

// reframe wraps an arbitrary payload in a valid frame (for the
// bad-json case: magic, CRC and length all pass; only JSON fails).
func reframe(payload []byte) []byte {
	out := append([]byte(nil), Magic...)
	out = binary.BigEndian.AppendUint32(out, framelog.Checksum(payload))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

func TestWriteLoadNewest(t *testing.T) {
	dir := t.TempDir()
	if st, path, err := LoadNewest(dir); st != nil || path != "" || err != nil {
		t.Fatalf("empty dir: %v %v %v", st, path, err)
	}
	for epoch := int64(1); epoch <= 3; epoch++ {
		if _, err := Write(dir, testState(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	st, path, err := LoadNewest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Epoch != 3 {
		t.Fatalf("loaded %+v from %s, want epoch 3", st, path)
	}
}

// TestCorruptionFallsBackToOlder is the table-driven corruption matrix:
// whatever happens to the newest checkpoint file — bit rot, truncation,
// magic damage, total replacement — LoadNewest must fall back to the
// newest older checkpoint that still validates.
func TestCorruptionFallsBackToOlder(t *testing.T) {
	inj := faultinject.New(7)
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"bit-flip-payload", func(t *testing.T, path string) {
			site := inj.NewSite(1)
			if hit, err := site.CorruptByte(path, int64(headerSize)); err != nil || !hit {
				t.Fatalf("CorruptByte: %v %v", hit, err)
			}
		}},
		{"truncated-tail", func(t *testing.T, path string) {
			site := inj.NewSite(2)
			if torn, err := site.TearTail(path, 1); err != nil || !torn {
				t.Fatalf("TearTail: %v %v", torn, err)
			}
		}},
		{"zeroed-region", func(t *testing.T, path string) {
			site := inj.NewSite(3)
			if hit, err := site.ZeroRange(path, 0, 32); err != nil || !hit {
				t.Fatalf("ZeroRange: %v %v", hit, err)
			}
		}},
		{"bad-magic", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty-file", func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Write(dir, testState(1)); err != nil {
				t.Fatal(err)
			}
			newest, err := Write(dir, testState(2))
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, newest)
			st, path, err := LoadNewest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st == nil || st.Epoch != 1 {
				t.Fatalf("fallback loaded %+v from %s, want epoch 1", st, path)
			}
		})
	}
}

func TestLoadNewestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	p1, err := Write(dir, testState(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p1, 4); err != nil {
		t.Fatal(err)
	}
	st, _, err := LoadNewest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("loaded %+v from an all-corrupt dir, want nil (cold start)", st)
	}
}

func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	for epoch := int64(1); epoch <= 6; epoch++ {
		if _, err := Write(dir, testState(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave a stray temp file from a "crashed" write.
	stray := filepath.Join(dir, ".checkpoint-123.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 3); err != nil {
		t.Fatal(err)
	}
	seqs, err := framelog.ListSeq(dir, filePrefix, fileSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("%d checkpoints survive prune, want 3", len(seqs))
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray temp file survived prune")
	}
	// The survivors are the newest three.
	st, _, err := LoadNewest(dir)
	if err != nil || st == nil || st.Epoch != 6 {
		t.Fatalf("newest after prune: %+v, %v", st, err)
	}
}

// TestParentFixture loads a directory written by the commit before
// checkpoints were rebuilt on internal/framelog, whose newest file has
// one flipped payload bit: the fallback must pick the file that commit's
// LoadNewest picked, decode the state it decoded (expected.json), and
// re-encode it to the bytes on disk.
func TestParentFixture(t *testing.T) {
	const fixture = "testdata/parent-newest-corrupt"
	var want struct {
		File  string `json:"file"`
		State *State `json:"state"`
	}
	raw, err := os.ReadFile(filepath.Join(fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var skipped []string
	st, path, err := LoadNewestFunc(fixture, func(path string, err error) {
		if err == nil {
			t.Errorf("%s reported as corrupt with a nil error", path)
		}
		skipped = append(skipped, filepath.Base(path))
	})
	if err != nil || st == nil {
		t.Fatalf("LoadNewestFunc: %+v, %v", st, err)
	}
	if filepath.Base(path) != want.File || !reflect.DeepEqual(st, want.State) {
		t.Fatalf("loaded %s = %+v, the parent loaded %s = %+v", path, st, want.File, want.State)
	}
	// The newest file has the flipped bit: it, and only it, is reported.
	if want := []string{"checkpoint-0000000000000002.ckpt"}; !reflect.DeepEqual(skipped, want) {
		t.Fatalf("reported corrupt %q, want %q", skipped, want)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Encode(st); err != nil || !bytes.Equal(again, onDisk) {
		t.Fatalf("re-encoding the loaded state does not reproduce the parent's file (%v)", err)
	}
}
