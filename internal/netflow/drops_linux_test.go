//go:build linux

package netflow

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// procNetLine renders one /proc/net/udp row with the given local port,
// inode, and drop count (the fields the probe reads; the rest are
// plausible filler).
func procNetLine(sl, port int, inode uint64, drops uint64) string {
	return fmt.Sprintf(
		" %3d: 0100007F:%04X 00000000:0000 07 00000000:00000000 00:00000000 00000000  1000        0 %d 2 0000000000000000 %d",
		sl, port, inode, drops)
}

// TestProcNetDropsInodeFilter pins the ownership rule on a synthetic
// /proc/net/udp: only rows whose inode is in the caller's set count,
// and an empty set falls back to port-wide matching.
func TestProcNetDropsInodeFilter(t *testing.T) {
	const port = 0x0887 // 2183
	content := "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n" +
		procNetLine(0, port, 100, 5) + "\n" + // ours
		procNetLine(1, port, 200, 7) + "\n" + // foreign reuseport socket
		procNetLine(2, port, 300, 9) + "\n" + // ours
		procNetLine(3, port+1, 400, 1000) + "\n" // different port entirely
	path := filepath.Join(t.TempDir(), "udp")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ours := map[uint64]struct{}{100: {}, 300: {}}
	if got := procNetDrops(path, port, ours); got != 14 {
		t.Errorf("inode-filtered drops = %d, want 14 (5+9, excluding the foreign socket's 7)", got)
	}
	if got := procNetDrops(path, port, map[uint64]struct{}{999: {}}); got != 0 {
		t.Errorf("disjoint inode set drops = %d, want 0", got)
	}
	if got := procNetDrops(path, port, nil); got != 21 {
		t.Errorf("port-only fallback drops = %d, want 21", got)
	}
}

// TestSocketDropsExcludesDecoy is the live regression for the
// misattribution bug: a decoy socket joins the server's port via
// SO_REUSEPORT (standing in for an unrelated process sharing the port),
// never reads, and overflows — the server's SocketDrops must not absorb
// the decoy's drops.
func TestSocketDropsExcludesDecoy(t *testing.T) {
	srv, err := NewCollectorServerOpts("127.0.0.1:0", &recordSink{}, ServerOptions{Sockets: 2, RcvBuf: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Sockets() < 2 {
		t.Skip("SO_REUSEPORT unavailable; decoy cannot share the port")
	}
	decoy, err := listenUDP(srv.Addr(), 1, true) // minimal kernel buffer, never read
	if err != nil {
		t.Fatalf("binding decoy: %v", err)
	}
	defer decoy.Close()
	decoyIno := sockInode(decoy)
	if decoyIno == 0 {
		t.Fatal("no inode for decoy socket")
	}
	port := localPort(decoy)
	decoyDrops := func() uint64 {
		return socketDrops(port, map[uint64]struct{}{decoyIno: {}})
	}

	// Blast datagrams from fresh source ports so REUSEPORT's 4-tuple
	// steering lands a share on the decoy, whose tiny unread buffer
	// overflows after a couple of packets.
	payload := make([]byte, 1400)
	deadline := time.Now().Add(5 * time.Second)
	for decoyDrops() == 0 {
		if time.Now().After(deadline) {
			t.Skip("kernel reported no decoy drops; cannot exercise the exclusion")
		}
		for i := 0; i < 32; i++ {
			conn, err := net.Dial("udp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				conn.Write(payload)
			}
			conn.Close()
		}
	}
	// Let in-flight loopback datagrams settle so the counters are static.
	time.Sleep(200 * time.Millisecond)

	total := socketDrops(port, nil) // port-wide: the pre-fix (buggy) attribution
	own := srv.SocketDrops()
	decoyed := decoyDrops()
	if decoyed == 0 {
		t.Fatal("decoy drops vanished")
	}
	if own+decoyed != total {
		t.Errorf("drop accounting: own %d + decoy %d != port total %d", own, decoyed, total)
	}
	if own >= total {
		t.Errorf("SocketDrops() = %d absorbed the decoy's drops (port total %d, decoy %d)", own, total, decoyed)
	}
}
