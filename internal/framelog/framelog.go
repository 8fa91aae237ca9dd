// Package framelog holds the three decisions tierd's durable files
// share, each made once:
//
//   - The frame: `u32 len | u32 crc32c | payload`, big-endian, CRC32-C
//     (Castagnoli) over the payload. AppendHeader/Seal build one in the
//     caller's buffer; Checksum is the same CRC for files that keep their
//     own header (checkpoints).
//   - Recovery: a file of frames is trusted up to its first invalid
//     frame and no further. Scan walks that contiguous valid prefix and
//     returns where it ends; the caller truncates there. A torn final
//     write, a flipped bit, a zeroed fsync region and trailing garbage
//     all stop the scan cleanly — damage never yields a corrupt middle.
//   - Publication: a whole file appears under its name complete or not
//     at all. PublishFile is temp → fsync → rename → directory fsync.
//
// internal/wal uses all of it (segments are frame files, rotation needs
// SyncDir, segment names are ListSeq's), internal/histstore uses the
// frame, Scan and PublishFile (compaction), and internal/checkpoint uses
// Checksum, PublishFile and ListSeq. What each does with a recovered
// prefix — discard later segments, fall back to an older checkpoint,
// dedup by key — stays in that package.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// HeaderSize is the frame header: u32 payload length + u32 CRC32-C.
const HeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32-C every frame carries.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendHeader reserves a frame header at the end of buf. The caller
// appends the payload after it and then calls Seal with the offset the
// header was reserved at, so a payload is assembled in place with no
// second copy.
func AppendHeader(buf []byte) []byte { return append(buf, make([]byte, HeaderSize)...) }

// Seal fills in the header reserved at buf[start:] for the payload that
// now runs from there to the end of buf.
func Seal(buf []byte, start int) {
	payload := buf[start+HeaderSize:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], Checksum(payload))
}

// ErrCorrupt is what a Scan callback returns to reject a frame whose
// checksum matched but whose contents it cannot accept: the valid prefix
// ends before that frame, exactly as if its CRC had failed.
var ErrCorrupt = errors.New("framelog: corrupt frame")

// Scan walks the frames of r's bytes [off, size) and calls fn with each
// valid payload and the file offset the payload starts at. The payload
// slice is reused between calls. It returns the offset just past the
// last valid frame: a frame that is cut short, has a zero length or one
// over maxPayload, fails its CRC, or that fn rejects with ErrCorrupt
// ends the prefix without error. Any other fn error, and any read error
// that is not end-of-file, is returned with the prefix end so far — the
// caller must not truncate on those. A nil fn only validates.
func Scan(r io.ReaderAt, off, size int64, maxPayload int, fn func(payloadOff int64, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, off, size-off), 64<<10)
	var hdr [HeaderSize]byte
	var payload []byte
	for off+HeaderSize <= size {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, readErr(err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[:]))
		// The size bound keeps a torn header from allocating up to maxPayload for a doomed ReadFull.
		if n == 0 || n > int64(maxPayload) || off+HeaderSize+n > size {
			return off, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, readErr(err)
		}
		if Checksum(payload) != binary.BigEndian.Uint32(hdr[4:]) {
			return off, nil
		}
		if fn != nil {
			if err := fn(off+HeaderSize, payload); err != nil {
				if errors.Is(err, ErrCorrupt) {
					err = nil
				}
				return off, err
			}
		}
		off += HeaderSize + n
	}
	return off, nil
}

// readErr maps running off the end of the file (it shrank under the
// scan) to a clean stop and keeps real I/O failures.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return fmt.Errorf("framelog: read: %w", err)
}

// PublishFile creates or replaces path with what write produces, so
// that a crash at any point leaves either the old file or the complete
// new one under that name: the bytes go to a temp file in the same
// directory, which is fsynced, renamed into place, and made durable by
// an fsync of the directory. The temp file is removed on every failure.
func PublishFile(path string, write func(w io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	dir = filepath.Clean(dir)
	tmp, err := os.CreateTemp(dir, "."+base+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // closing twice is harmless; the first error is the one reported
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rename into place: %w", err)
	}
	return SyncDir(dir)
}

// RemoveTemps deletes what crashed PublishFile calls left in dir for
// targets whose file name starts with prefix. The rename never happened,
// so the live files are authoritative and the temps are garbage.
func RemoveTemps(dir, prefix string) {
	entries, _ := os.ReadDir(dir) // best effort: a stray temp file is only wasted space
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "."+prefix) && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// SyncDir fsyncs a directory so the creates, renames and removes within
// it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SeqName is the name of file seq in a numbered series; the fixed-width
// hex makes lexicographic order equal numeric order.
func SeqName(prefix string, seq uint64, suffix string) string {
	return fmt.Sprintf("%s%016x%s", prefix, seq, suffix)
}

// ListSeq returns, ascending, the sequence numbers of dir's SeqName
// files for this prefix and suffix. A missing directory holds none.
func ListSeq(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		hex, okP := strings.CutPrefix(e.Name(), prefix)
		hex, okS := strings.CutSuffix(hex, suffix)
		if !okP || !okS || len(hex) != 16 {
			continue
		}
		if seq, err := strconv.ParseUint(hex, 16, 64); err == nil {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}
