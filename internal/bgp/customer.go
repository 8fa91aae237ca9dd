package bgp

import (
	"fmt"
	"net"
	"sync"
)

// Customer is the customer side of §5.1: a session to a provider's
// Speaker that applies every UPDATE it receives to its own RIB. The
// Speaker ends its connect-time replay and each push with End-of-RIB, so
// the customer learns from the wire, not from a timer, when its RIB
// holds a whole table.
type Customer struct {
	sess *Session
	rib  *RIB
	done chan struct{} // closed when the receive loop ends

	mu      sync.Mutex
	cond    *sync.Cond // signalled on each End-of-RIB and at the end
	pending int        // End-of-RIBs received that Wait has not returned for
	err     error      // why the receive loop ended
}

// DialCustomer connects to the speaker at addr, runs the OPEN exchange
// as local, and returns once the speaker's connect-time replay is in
// the customer's RIB. The RIB drops routes whose AS path holds local.AS.
func DialCustomer(addr string, local Open) (*Customer, error) {
	conn, err := net.DialTimeout("tcp", addr, defaultTimeout)
	if err != nil {
		return nil, fmt.Errorf("bgp: dial: %w", err)
	}
	sess, err := Establish(conn, local)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Customer{sess: sess, rib: NewRIB(), done: make(chan struct{})}
	c.rib.LocalAS = local.AS
	c.cond = sync.NewCond(&c.mu)
	for eor := false; !eor; { // the replay, read here rather than handed over
		if eor, err = c.next(); err != nil {
			sess.Close()
			return nil, err
		}
	}
	go c.receive()
	return c, nil
}

// RIB returns the customer's routing table.
func (c *Customer) RIB() *RIB { return c.rib }

// Wait blocks until the speaker completes a push this customer has not
// yet waited for, and returns at once if one already has. If the
// session ends first, Wait returns the error that ended it.
func (c *Customer) Wait() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.pending == 0 && c.err == nil {
		c.cond.Wait()
	}
	if c.pending == 0 {
		return c.err
	}
	c.pending--
	return nil
}

// Close tears the session down and waits for the receive loop to stop.
func (c *Customer) Close() error {
	err := c.sess.Close()
	<-c.done
	return err
}

// receive applies each message after the replay and counts End-of-RIBs
// until the session fails or closes.
func (c *Customer) receive() {
	defer close(c.done)
	var err error
	for err == nil {
		var eor bool
		if eor, err = c.next(); eor {
			c.mu.Lock()
			c.pending++
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.err = err
	c.cond.Broadcast()
	c.mu.Unlock()
}

// next reads one message, applies it if it is an UPDATE, and reports
// whether it was End-of-RIB.
func (c *Customer) next() (eor bool, err error) {
	msg, err := c.sess.Recv()
	switch m := msg.(type) {
	case *Update:
		return m.endOfRIB(), c.rib.Apply(m)
	case *Notification:
		return false, fmt.Errorf("bgp: peer sent NOTIFICATION %d/%d", m.Code, m.Subcode)
	}
	return false, err
}
