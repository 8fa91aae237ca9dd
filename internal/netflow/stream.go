package netflow

import (
	"fmt"
	"io"
)

// Writer batches flow records into export packets and writes them to an
// underlying stream (a trace file, or a UDP socket wrapped in an
// io.Writer). Packets are self-framing — the header carries the record
// count — so consecutive packets can simply be concatenated.
type Writer struct {
	w        io.Writer
	pending  []Record
	pkt      []byte // the packet being written, reused across packets
	sequence uint32
	// Template header copied into every packet (timestamps and sampling).
	Template Header
	err      error
}

// NewWriter creates a Writer exporting through w.
func NewWriter(w io.Writer, template Header) *Writer {
	return &Writer{
		w:        w,
		pending:  make([]Record, 0, MaxRecordsPerPacket),
		pkt:      make([]byte, 0, maxDatagram),
		Template: template,
	}
}

// Write queues records for export, flushing full packets as it goes.
func (wr *Writer) Write(recs ...Record) error {
	if wr.err != nil {
		return wr.err
	}
	for _, r := range recs {
		wr.pending = append(wr.pending, r)
		if len(wr.pending) == MaxRecordsPerPacket {
			if err := wr.flushPacket(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes any partially filled packet.
func (wr *Writer) Flush() error {
	if wr.err != nil {
		return wr.err
	}
	if len(wr.pending) == 0 {
		return nil
	}
	return wr.flushPacket()
}

func (wr *Writer) flushPacket() error {
	h := wr.Template
	h.FlowSequence = wr.sequence
	pkt, err := AppendPacket(wr.pkt[:0], h, wr.pending)
	if err != nil {
		wr.err = err
		return err
	}
	wr.pkt = pkt
	if _, err := wr.w.Write(pkt); err != nil {
		wr.err = fmt.Errorf("netflow: write: %w", err)
		return wr.err
	}
	wr.sequence += uint32(len(wr.pending))
	wr.pending = wr.pending[:0]
	return nil
}

// Reader streams export packets back from a concatenated packet stream.
// It frames each packet into one reused buffer and decodes it with
// DecodePacketInto, the UDP path's decoder, into one reused record slice.
type Reader struct {
	r    io.Reader
	buf  []byte
	recs []Record
}

// NewReader creates a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, maxDatagram), recs: make([]Record, MaxRecordsPerPacket)}
}

// Next reads one export packet. It returns io.EOF cleanly at end of
// stream and an error for truncated or corrupt input. The records are
// valid until the next call, which decodes into the same array — the
// contract a Sink is handed records under — so a caller that keeps them
// copies them.
func (rd *Reader) Next() (Header, []Record, error) {
	head := rd.buf[:HeaderSize]
	if _, err := io.ReadFull(rd.r, head); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("netflow: reading header: %w", err)
	}
	h, err := parseHeader(head)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Count == 0 || h.Count > MaxRecordsPerPacket {
		return Header{}, nil, fmt.Errorf("netflow: bad record count %d", h.Count)
	}
	pkt := rd.buf[:HeaderSize+int(h.Count)*RecordSize]
	if _, err := io.ReadFull(rd.r, pkt[HeaderSize:]); err != nil {
		return Header{}, nil, fmt.Errorf("netflow: reading %d records: %w", h.Count, err)
	}
	return DecodePacketInto(pkt, rd.recs)
}

// Feed drains a concatenated packet stream into sink, one Ingest per
// export packet, and returns the number of records it handed over. EOF
// on a packet boundary ends the stream cleanly; a truncated or corrupt
// packet stops it with Next's error, after every whole packet before it.
func Feed(sink Sink, r io.Reader) (records int, err error) {
	rd := NewReader(r)
	for {
		h, recs, err := rd.Next()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return records, err
		}
		sink.Ingest(h, recs)
		records += len(recs)
	}
}
