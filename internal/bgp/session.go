package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Session is an established BGP session over a reliable transport. Both
// sides run the same code: exchange OPENs, confirm with KEEPALIVEs, then
// trade UPDATEs.
type Session struct {
	conn net.Conn
	// Local and Peer are the OPEN parameters of each side.
	Local Open
	Peer  Open
}

// defaultTimeout bounds each handshake I/O operation.
const defaultTimeout = 5 * time.Second

// Establish performs the OPEN/KEEPALIVE handshake over conn and returns
// the session. Both endpoints call Establish concurrently (there is no
// client/server asymmetry in BGP session setup once TCP is connected).
func Establish(conn net.Conn, local Open) (*Session, error) {
	s := &Session{conn: conn, Local: local}
	msg, err := EncodeOpen(local)
	if err != nil {
		return nil, err
	}
	if err := s.writeDeadline(msg); err != nil {
		return nil, fmt.Errorf("bgp: sending OPEN: %w", err)
	}
	typ, body, err := s.readMessage()
	if err != nil {
		return nil, fmt.Errorf("bgp: awaiting OPEN: %w", err)
	}
	if typ != MsgOpen {
		return nil, fmt.Errorf("bgp: expected OPEN, got type %d", typ)
	}
	parsed, err := DecodeBody(typ, body)
	if err != nil {
		return nil, err
	}
	s.Peer = *parsed.(*Open)

	ka, err := EncodeKeepalive()
	if err != nil {
		return nil, err
	}
	if err := s.writeDeadline(ka); err != nil {
		return nil, fmt.Errorf("bgp: sending KEEPALIVE: %w", err)
	}
	typ, body, err = s.readMessage()
	if err != nil {
		return nil, fmt.Errorf("bgp: awaiting KEEPALIVE: %w", err)
	}
	if typ != MsgKeepalive {
		return nil, fmt.Errorf("bgp: expected KEEPALIVE, got type %d", typ)
	}
	if _, err := DecodeBody(typ, body); err != nil {
		return nil, err
	}
	return s, nil
}

// SendUpdate transmits an UPDATE.
func (s *Session) SendUpdate(u Update) error {
	msg, err := EncodeUpdate(u)
	if err != nil {
		return err
	}
	return s.writeDeadline(msg)
}

// Recv reads the next message, returning *Update, *Notification, or nil
// for a KEEPALIVE. io.EOF signals an orderly close.
func (s *Session) Recv() (interface{}, error) {
	typ, body, err := s.readMessage()
	if err != nil {
		return nil, err
	}
	return DecodeBody(typ, body)
}

// Close tears the session down.
func (s *Session) Close() error { return s.conn.Close() }

func (s *Session) writeDeadline(b []byte) error {
	if err := s.conn.SetWriteDeadline(time.Now().Add(defaultTimeout)); err != nil {
		return err
	}
	_, err := s.conn.Write(b)
	return err
}

// readMessage reads one framed message and validates the marker.
func (s *Session) readMessage() (uint8, []byte, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(defaultTimeout)); err != nil {
		return 0, nil, err
	}
	head := make([]byte, HeaderLen)
	if _, err := io.ReadFull(s.conn, head); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	for i := 0; i < MarkerLen; i++ {
		if head[i] != 0xFF {
			return 0, nil, errors.New("bgp: bad marker")
		}
	}
	total := int(binary.BigEndian.Uint16(head[MarkerLen : MarkerLen+2]))
	if total < HeaderLen || total > MaxMsgLen {
		return 0, nil, fmt.Errorf("bgp: bad message length %d", total)
	}
	body := make([]byte, total-HeaderLen)
	if _, err := io.ReadFull(s.conn, body); err != nil {
		return 0, nil, err
	}
	return head[HeaderLen-1], body, nil
}
