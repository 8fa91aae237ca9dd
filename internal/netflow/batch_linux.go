//go:build linux

package netflow

// Linux fast path for the collector server: SO_REUSEPORT socket fan-out
// and recvmmsg batched receive. Both are spelled against raw syscalls
// because the repo carries no golang.org/x/sys dependency.

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// reuseportAvailable gates kernel flow-steering across sockets bound to
// one port; where false the server falls back to several readers
// sharing a single socket.
const reuseportAvailable = true

// soReusePort is SO_REUSEPORT (stdlib syscall does not export it).
const soReusePort = 0xf

// listenConfig returns a ListenConfig whose Control hook sets
// SO_REUSEPORT before bind when requested.
func listenConfig(reuseport bool) net.ListenConfig {
	if !reuseport {
		return net.ListenConfig{}
	}
	return net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			})
			if err != nil {
				return err
			}
			return serr
		},
	}
}

// mmsghdr mirrors C's struct mmsghdr. Go pads it to the same layout on
// every linux arch: msg_len sits right after the embedded msghdr and
// the struct rounds up to msghdr's alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// batchReader drains many datagrams per recvmmsg syscall into a ring of
// reusable buffers. Reads are issued non-blocking under RawConn.Read so
// the goroutine parks on the runtime netpoller between batches instead
// of pinning a thread.
type batchReader struct {
	rc   syscall.RawConn
	bufs [][]byte
	iov  []syscall.Iovec
	msgs []mmsghdr
}

func newBatchReader(pc net.PacketConn) datagramReader {
	sc, ok := pc.(syscall.Conn)
	if !ok {
		return newSingleReader(pc)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return newSingleReader(pc)
	}
	br := &batchReader{
		rc:   rc,
		bufs: make([][]byte, readBatch),
		iov:  make([]syscall.Iovec, readBatch),
		msgs: make([]mmsghdr, readBatch),
	}
	for i := range br.bufs {
		br.bufs[i] = make([]byte, maxDatagram)
		br.iov[i].Base = &br.bufs[i][0]
		br.iov[i].SetLen(maxDatagram)
		br.msgs[i].hdr.Iov = &br.iov[i]
		br.msgs[i].hdr.Iovlen = 1
	}
	return br
}

func (br *batchReader) read() (int, error) {
	var n int
	var errno syscall.Errno
	err := br.rc.Read(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&br.msgs[0])), uintptr(len(br.msgs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false // park on the netpoller until readable
		}
		n, errno = int(r), e
		return true
	})
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	return n, nil
}

func (br *batchReader) datagram(i int) []byte { return br.bufs[i][:br.msgs[i].len] }

// socketInodes collects the socket inode of every bound conn — the
// identity /proc/net/udp rows carry in their inode column — so drop
// accounting can be restricted to sockets this server actually owns.
// A socket fd's fstat st_ino IS its /proc/net inode.
func socketInodes(conns []net.PacketConn) map[uint64]struct{} {
	inodes := make(map[uint64]struct{}, len(conns))
	for _, pc := range conns {
		if ino := sockInode(pc); ino != 0 {
			inodes[ino] = struct{}{}
		}
	}
	return inodes
}

func sockInode(pc net.PacketConn) uint64 {
	sc, ok := pc.(syscall.Conn)
	if !ok {
		return 0
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0
	}
	var ino uint64
	_ = rc.Control(func(fd uintptr) {
		var st syscall.Stat_t
		if syscall.Fstat(int(fd), &st) == nil {
			ino = st.Ino
		}
	})
	return ino
}

// socketDrops sums the kernel receive-queue drop counters of the UDP
// sockets bound to port, read from /proc/net/udp and /proc/net/udp6
// (the trailing "drops" column). Rows are matched on the local-port hex
// field AND the socket inode: other processes can share the port via
// SO_REUSEPORT, and their drops are not ours to report. An empty inode
// set (stat unavailable) falls back to port-only matching.
func socketDrops(port int, inodes map[uint64]struct{}) uint64 {
	if port == 0 {
		return 0
	}
	var total uint64
	for _, path := range []string{"/proc/net/udp", "/proc/net/udp6"} {
		total += procNetDrops(path, port, inodes)
	}
	return total
}

func procNetDrops(path string, port int, inodes map[uint64]struct{}) uint64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	want := fmt.Sprintf(":%04X", port)
	var total uint64
	lines := strings.Split(string(data), "\n")
	for _, line := range lines[1:] {
		// sl local rem st tx:rx tr:tm retrnsmt uid timeout inode ref ptr drops
		f := strings.Fields(line)
		if len(f) < 13 || !strings.HasSuffix(f[1], want) {
			continue
		}
		if len(inodes) > 0 {
			ino, err := strconv.ParseUint(f[9], 10, 64)
			if err != nil {
				continue
			}
			if _, ours := inodes[ino]; !ours {
				continue
			}
		}
		if d, err := strconv.ParseUint(f[len(f)-1], 10, 64); err == nil {
			total += d
		}
	}
	return total
}
