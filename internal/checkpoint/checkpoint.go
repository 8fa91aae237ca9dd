// Package checkpoint persists tierd's recovery state: a point-in-time
// snapshot of the sliding window (slots, dedup sets, counters), the
// WAL position the snapshot covers, the serving epoch and the
// pricing-config epoch. Tier-table history lives in internal/histstore;
// checkpoints written before it did carry a copy, which boot reads once.
//
// Each checkpoint is published whole (framelog.PublishFile): a crash at
// any point leaves either the old checkpoint set or the old set plus a
// complete new file — never a half-written checkpoint under a live
// name. Each file is additionally framed with a magic string and a
// CRC32-C, so LoadNewest can detect a corrupted file (bit rot, torn
// copy) and fall back to the next-older checkpoint instead of trusting
// garbage.
//
// Recovery contract with internal/wal: a checkpoint covering WAL
// position P means "this window state already contains every WAL entry
// before P" — boot restores the window from the checkpoint and replays
// the WAL from P, and segments wholly before P can be deleted.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tieredpricing/internal/framelog"
	"tieredpricing/internal/stream"
	"tieredpricing/internal/wal"
)

// Magic identifies a checkpoint file and pins the format version; a
// format change bumps the suffix so old readers reject new files
// cleanly instead of misparsing them.
const Magic = "TPCKPT01"

// headerSize is magic + u32 CRC32-C(payload) + u32 len(payload).
const headerSize = len(Magic) + 8

// State is everything a checkpoint persists.
type State struct {
	// CreatedAt is when the checkpoint was taken (daemon clock).
	CreatedAt time.Time `json:"created_at"`
	// Epoch is the serving snapshot's epoch at checkpoint time (0 when
	// no snapshot has been published yet); recovery fast-forwards the
	// repricer so epochs stay monotone across restarts.
	Epoch int64 `json:"epoch"`
	// WAL is the log position this checkpoint covers: the window state
	// below already contains every WAL entry before it.
	WAL wal.Position `json:"wal"`
	// Window is the full exported window state.
	Window stream.WindowState `json:"window"`
	// Tenant names the durability namespace that wrote the checkpoint
	// (multi-tenant daemons), so recovery can refuse a checkpoint that
	// was copied into the wrong tenant's directory. Empty in
	// single-tenant namespaces — and in every pre-fleet checkpoint,
	// which therefore stays loadable.
	Tenant string `json:"tenant,omitempty"`
	// Table held the serving snapshot's canonical TierTable bytes in
	// checkpoints written before tierd stopped writing it. Recovery never
	// read it (the warm re-price rebuilds the table); the field stays so
	// those files decode and re-encode byte for byte.
	Table json.RawMessage `json:"table,omitempty"`
	// ConfigEpoch is the process-wide pricing-config generation at
	// checkpoint time (1 at first boot, +1 per successful hot reload;
	// 0 in pre-reload checkpoints, restored as 1). Recovery
	// fast-forwards the daemon's epoch so a restart cannot reuse a
	// generation number an earlier config already published under.
	ConfigEpoch int64 `json:"config_epoch,omitempty"`
	// History held the tier-table time series (oldest first) in
	// checkpoints written before tierd kept history only in its
	// histstore. Boot back-fills it into the store — the rows decode as
	// []histstore.Entry, whose JSON tags match — and tierd no longer
	// writes it; the field stays so those files decode and re-encode
	// byte for byte.
	History json.RawMessage `json:"history,omitempty"`
}

// Encode frames the state for disk: Magic, CRC32-C over the JSON
// payload, payload length, payload. The JSON is deterministic for a
// deterministic State (encoding/json emits struct fields in declaration
// order and WindowState's slices are sorted on export).
func Encode(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, Magic...)
	buf = binary.BigEndian.AppendUint32(buf, framelog.Checksum(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}

// Decode validates the framing (magic, length, CRC) and unmarshals the
// state. Any mismatch returns an error — LoadNewest treats it as "this
// file is corrupt, try the previous one".
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("checkpoint: %d bytes is shorter than the header", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, errors.New("checkpoint: bad magic")
	}
	wantCRC := binary.BigEndian.Uint32(data[len(Magic):])
	wantLen := int(binary.BigEndian.Uint32(data[len(Magic)+4:]))
	payload := data[headerSize:]
	if wantLen != len(payload) {
		return nil, fmt.Errorf("checkpoint: header says %d payload bytes, file has %d", wantLen, len(payload))
	}
	if framelog.Checksum(payload) != wantCRC {
		return nil, errors.New("checkpoint: CRC mismatch")
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &st, nil
}

const filePrefix, fileSuffix = "checkpoint-", ".ckpt"

// filePath is checkpoint seq's file.
func filePath(dir string, seq uint64) string {
	return filepath.Join(dir, framelog.SeqName(filePrefix, seq, fileSuffix))
}

// Write persists st as the next checkpoint in dir, atomically, and
// returns the final path.
func Write(dir string, st *State) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := Encode(st)
	if err != nil {
		return "", err
	}
	seqs, err := framelog.ListSeq(dir, filePrefix, fileSuffix)
	if err != nil {
		return "", err
	}
	next := uint64(1)
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	final := filePath(dir, next)
	err = framelog.PublishFile(final, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("checkpoint: write: %w", err)
	}
	return final, nil
}

// List returns the paths of dir's checkpoint files, oldest first.
func List(dir string) ([]string, error) {
	seqs, err := framelog.ListSeq(dir, filePrefix, fileSuffix)
	paths := make([]string, len(seqs))
	for i, seq := range seqs {
		paths[i] = filePath(dir, seq)
	}
	return paths, err
}

// LoadNewest returns the newest checkpoint that decodes and validates,
// scanning from newest to oldest and skipping corrupt files — a bad CRC
// or truncated file falls back to the previous checkpoint rather than
// failing recovery. With no loadable checkpoint it returns (nil, "",
// nil): recovery then starts from an empty window and the WAL head.
func LoadNewest(dir string) (*State, string, error) {
	return LoadNewestFunc(dir, nil)
}

// LoadNewestFunc is LoadNewest that also calls skipped, when non-nil,
// with each corrupt file it passes over and the file's decode error,
// newest first.
func LoadNewestFunc(dir string, skipped func(path string, err error)) (*State, string, error) {
	seqs, err := framelog.ListSeq(dir, filePrefix, fileSuffix)
	if err != nil {
		return nil, "", err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filePath(dir, seqs[i])
		data, err := os.ReadFile(path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // pruned between list and read
			}
			return nil, "", err
		}
		st, err := Decode(data)
		if err != nil {
			if skipped != nil {
				skipped(path, err)
			}
			continue // corrupt — fall back to the next-older checkpoint
		}
		return st, path, nil
	}
	return nil, "", nil
}

// Prune deletes all but the newest keep checkpoints (and any leftover
// temp files from crashed writes).
func Prune(dir string, keep int) error {
	framelog.RemoveTemps(dir, filePrefix)
	seqs, err := framelog.ListSeq(dir, filePrefix, fileSuffix)
	if err != nil {
		return err
	}
	for i := 0; i < len(seqs)-keep; i++ {
		if err := os.Remove(filePath(dir, seqs[i])); err != nil {
			return fmt.Errorf("checkpoint: prune: %w", err)
		}
	}
	return nil
}
