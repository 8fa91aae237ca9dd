package netflow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file adds the wire transport the paper's collection infrastructure
// actually uses: NetFlow is exported over UDP from each core router to a
// central collector (Figure 17b, "Flow Collector"). Exporter wraps a
// Writer around a UDP socket with one datagram per export packet;
// CollectorServer listens, decodes and feeds a Sink (the stream package's
// Window, sliding or batch).

// Exporter sends export packets to a collector over UDP, one datagram
// per packet (as real routers do — NetFlow v5 has no fragmentation or
// retransmission; loss tolerance is part of the protocol's design).
type Exporter struct {
	conn net.Conn
	mu   sync.Mutex
	pend []Record
	// Template is copied into every packet.
	Template Header
	sequence uint32
}

// NewExporter dials the collector address ("host:port").
func NewExporter(addr string, template Header) (*Exporter, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netflow: dialing collector: %w", err)
	}
	return &Exporter{conn: conn, Template: template}, nil
}

// Export queues records, sending a datagram whenever a packet fills.
func (e *Exporter) Export(recs ...Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range recs {
		e.pend = append(e.pend, r)
		if len(e.pend) == MaxRecordsPerPacket {
			if err := e.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush sends any partially filled packet.
func (e *Exporter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pend) == 0 {
		return nil
	}
	return e.flushLocked()
}

func (e *Exporter) flushLocked() error {
	h := e.Template
	h.FlowSequence = e.sequence
	pkt, err := EncodePacket(h, e.pend)
	if err != nil {
		return err
	}
	if _, err := e.conn.Write(pkt); err != nil {
		return fmt.Errorf("netflow: udp send: %w", err)
	}
	e.sequence += uint32(len(e.pend))
	e.pend = e.pend[:0]
	return nil
}

// Close flushes and closes the socket.
func (e *Exporter) Close() error {
	if err := e.Flush(); err != nil {
		e.conn.Close()
		return err
	}
	return e.conn.Close()
}

// Sink consumes decoded export packets; the stream package's Window is
// the implementation, online and batch alike. Implementations must be safe for concurrent Ingest calls, and must not
// retain recs past the call's return: the server reuses the backing
// array for the next datagram.
type Sink interface {
	Ingest(h Header, recs []Record)
}

// maxDatagram is the largest valid export packet on the wire.
const maxDatagram = HeaderSize + MaxRecordsPerPacket*RecordSize

// ServerOptions tunes a CollectorServer. The zero value reproduces the
// historical single-socket, single-reader server.
type ServerOptions struct {
	// Sockets is the number of UDP sockets (and reader goroutines) to
	// bind to the same port. On Linux, sockets beyond the first bind
	// with SO_REUSEPORT so the kernel flow-steers datagrams across them;
	// where REUSEPORT is unavailable the extra readers share one socket
	// (user-space dispatch). Values < 1 mean 1.
	Sockets int
	// RcvBuf requests SO_RCVBUF bytes of kernel socket buffer per
	// socket (0 = OS default). The kernel may clamp the request; drops
	// that occur when the buffer overflows are visible via SocketDrops.
	RcvBuf int
	// Batch is the number of datagrams read per syscall where batched
	// receive (recvmmsg) is available (0 = a sensible default). Each
	// reader goroutine owns Batch reusable packet buffers.
	Batch int
}

// defaultBatch is the per-reader datagram batch when none is requested.
const defaultBatch = 32

// CollectorServer receives export datagrams on one or more UDP sockets
// bound to the same port and feeds them to a Sink. Reads are batched
// (one recvmmsg syscall drains many datagrams on Linux) into per-reader
// reusable buffers, so the receive path performs no per-datagram
// allocation.
type CollectorServer struct {
	conns []net.PacketConn
	sink  Sink
	batch int
	port  int
	// inodes identifies this server's sockets in /proc/net/udp, so drop
	// accounting excludes foreign SO_REUSEPORT sockets on the same port.
	inodes map[uint64]struct{}

	packets atomic.Uint64
	bad     atomic.Uint64
	closed  atomic.Bool
	wg      sync.WaitGroup
	closeMu sync.Mutex
}

// NewCollectorServer starts a single-socket server listening on addr
// (use "127.0.0.1:0" for an ephemeral test port) and ingesting into sink
// in a background goroutine. Callers must Close it.
func NewCollectorServer(addr string, sink Sink) (*CollectorServer, error) {
	return NewCollectorServerOpts(addr, sink, ServerOptions{})
}

// NewCollectorServerOpts starts a server with explicit socket, buffer
// and batching options.
func NewCollectorServerOpts(addr string, sink Sink, opts ServerOptions) (*CollectorServer, error) {
	if sink == nil {
		return nil, errors.New("netflow: nil sink")
	}
	sockets := opts.Sockets
	if sockets < 1 {
		sockets = 1
	}
	batch := opts.Batch
	if batch < 1 {
		batch = defaultBatch
	}
	s := &CollectorServer{sink: sink, batch: batch}
	reuse := sockets > 1 && reuseportAvailable
	first, err := listenUDP(addr, opts.RcvBuf, reuse)
	if err != nil {
		return nil, fmt.Errorf("netflow: listen: %w", err)
	}
	s.conns = append(s.conns, first)
	s.port = localPort(first)
	if reuse {
		// Additional sockets bind the resolved address of the first, so
		// an ephemeral ":0" request lands every socket on the same port.
		bound := first.LocalAddr().String()
		for i := 1; i < sockets; i++ {
			pc, err := listenUDP(bound, opts.RcvBuf, true)
			if err != nil {
				s.closeConns()
				return nil, fmt.Errorf("netflow: listen (reuseport socket %d): %w", i, err)
			}
			s.conns = append(s.conns, pc)
		}
	}
	s.inodes = socketInodes(s.conns)
	readers := s.conns
	if len(readers) == 1 && sockets > 1 {
		// No REUSEPORT: user-space dispatch — several readers drain the
		// one socket and the sink's shard hash spreads the records.
		for i := 1; i < sockets; i++ {
			readers = append(readers, first)
		}
	}
	s.wg.Add(len(readers))
	for _, pc := range readers {
		go s.loop(pc)
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *CollectorServer) Addr() string { return s.conns[0].LocalAddr().String() }

// Sockets reports how many UDP sockets the server bound.
func (s *CollectorServer) Sockets() int { return len(s.conns) }

// Stats reports datagrams received and datagrams that failed to decode.
func (s *CollectorServer) Stats() (packets, bad int) {
	return int(s.packets.Load()), int(s.bad.Load())
}

// SocketDrops reports the kernel's receive-queue drop count summed over
// the server's own sockets — datagrams that arrived but found the
// socket buffer full, invisible to user space except through kernel
// stats. Sockets other processes bind to the same port (SO_REUSEPORT)
// are excluded: their drops never held data destined for this server's
// readers. Returns 0 where the platform exposes no counter.
func (s *CollectorServer) SocketDrops() uint64 {
	return socketDrops(s.port, s.inodes)
}

// Close stops the receive loops and closes the sockets.
func (s *CollectorServer) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	err := s.closeConns()
	s.wg.Wait()
	return err
}

func (s *CollectorServer) closeConns() error {
	var err error
	for _, pc := range s.conns {
		if cerr := pc.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Drain waits until the server has received at least n datagrams or the
// timeout elapses, for tests and batch pipelines that need to know the
// UDP stream has been consumed (UDP gives no delivery signal).
func (s *CollectorServer) Drain(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		packets, _ := s.Stats()
		if packets >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netflow: drained %d of %d datagrams before timeout", packets, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// loop is one reader goroutine: batched reads into reusable buffers,
// decode into a reusable record slice, synchronous hand-off to the sink.
func (s *CollectorServer) loop(pc net.PacketConn) {
	defer s.wg.Done()
	br := newBatchReader(pc, s.batch)
	recs := make([]Record, 0, MaxRecordsPerPacket)
	for {
		n, err := br.read()
		if err != nil {
			// Closed socket ends the loop; transient errors are counted.
			if s.closed.Load() {
				return
			}
			s.bad.Add(1)
			continue
		}
		for i := 0; i < n; i++ {
			s.packets.Add(1)
			h, rs, derr := DecodePacketInto(br.datagram(i), recs)
			if derr != nil {
				s.bad.Add(1)
				continue
			}
			s.sink.Ingest(h, rs)
		}
	}
}

// localPort extracts the bound UDP port for kernel drop-stat lookup.
func localPort(pc net.PacketConn) int {
	if ua, ok := pc.LocalAddr().(*net.UDPAddr); ok {
		return ua.Port
	}
	return 0
}

// listenUDP binds one UDP socket, optionally requesting SO_REUSEPORT
// (Linux only) and a kernel receive buffer size.
func listenUDP(addr string, rcvbuf int, reuseport bool) (net.PacketConn, error) {
	lc := listenConfig(reuseport)
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	if rcvbuf > 0 {
		if uc, ok := pc.(*net.UDPConn); ok {
			if err := uc.SetReadBuffer(rcvbuf); err != nil {
				pc.Close()
				return nil, err
			}
		}
	}
	return pc, nil
}

// datagramReader abstracts batched datagram receive: read() blocks until
// at least one datagram arrives and returns how many, datagram(i) views
// the i'th payload. Payloads are valid only until the next read().
type datagramReader interface {
	read() (int, error)
	datagram(i int) []byte
}

// singleReader is the portable batch reader: one ReadFrom per read()
// into a single reusable buffer.
type singleReader struct {
	pc  net.PacketConn
	buf []byte
	n   int
}

func newSingleReader(pc net.PacketConn) *singleReader {
	return &singleReader{pc: pc, buf: make([]byte, maxDatagram)}
}

func (r *singleReader) read() (int, error) {
	n, _, err := r.pc.ReadFrom(r.buf)
	if err != nil {
		return 0, err
	}
	r.n = n
	return 1, nil
}

func (r *singleReader) datagram(int) []byte { return r.buf[:r.n] }
