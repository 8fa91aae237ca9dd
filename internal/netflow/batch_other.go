//go:build !linux

package netflow

// Portable fallbacks for platforms without SO_REUSEPORT steering,
// recvmmsg, or /proc socket statistics: one socket shared by all reader
// goroutines, one datagram per read, no kernel drop visibility.

import "net"

const reuseportAvailable = false

func listenConfig(bool) net.ListenConfig { return net.ListenConfig{} }

func newBatchReader(pc net.PacketConn) datagramReader { return newSingleReader(pc) }

func socketDrops(_ int, _ map[uint64]struct{}) uint64 { return 0 }

func socketInodes([]net.PacketConn) map[uint64]struct{} { return nil }
