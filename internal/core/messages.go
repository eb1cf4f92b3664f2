package core

import (
	"fmt"

	"dlpt/internal/keys"
)

// msgType enumerates the queued protocol messages of Section 3.
// SearchingHost, Host and UpdateChild execute synchronously (see
// routeSearchingHost / applyUpdateChild): a queued SearchingHost
// could otherwise be overtaken by a message addressed to the node it
// is still placing, which a real implementation avoids by delaying
// delivery until the node exists. They are accounted as messages all
// the same. YourInformation and UpdateSuccessor of Algorithm 2 are
// applied inline by the NewPredecessor handler.
type msgType int

const (
	msgPeerJoin       msgType = iota // <PeerJoin, P, s> — node-addressed
	msgNewPredecessor                // <NewPredecessor, P> — peer-addressed
	msgDataInsertion                 // <DataInsertion, k> — node-addressed
)

var msgNames = [...]string{msgPeerJoin: "PeerJoin", msgNewPredecessor: "NewPredecessor", msgDataInsertion: "DataInsertion"}

func (t msgType) String() string { return msgNames[t] }

// message is one in-flight protocol message.
type message struct {
	typ           msgType
	toNode        keys.Key // recipient tree node (nodeAddressed)
	toPeer        keys.Key // recipient peer (!nodeAddressed)
	nodeAddressed bool
	fromPeer      keys.Key // sending peer, for physical-hop accounting

	// PeerJoin / NewPredecessor payload.
	joinID       keys.Key
	joinState    int
	joinCapacity int

	// DataInsertion payload.
	key   keys.Key
	value string
}

// sendToNode enqueues a node-addressed message.
func (net *Network) sendToNode(from keys.Key, to keys.Key, m message) {
	m.fromPeer = from
	m.toNode = to
	m.nodeAddressed = true
	net.queue = append(net.queue, m)
}

// sendToPeer enqueues a peer-addressed message.
func (net *Network) sendToPeer(from keys.Key, to keys.Key, m message) {
	m.fromPeer = from
	m.toPeer = to
	m.nodeAddressed = false
	net.queue = append(net.queue, m)
}

// drain processes queued messages to quiescence. Every delivery is a
// maintenance message; a delivery whose sending peer differs from the
// receiving peer is additionally a physical communication. The queue
// keeps its buffer, and is emptied on an error too.
func (net *Network) drain() error {
	var err error
	for i := 0; i < len(net.queue) && err == nil; i++ {
		err = net.deliver(net.queue[i])
	}
	clear(net.queue)
	net.queue = net.queue[:0]
	return err
}

func (net *Network) deliver(m message) error {
	var n *Node
	var p *Peer
	var ok bool
	if m.nodeAddressed {
		if n, p, ok = net.NodeAt(m.toNode); !ok {
			return fmt.Errorf("core: %v addressed to absent node %q", m.typ, m.toNode)
		}
	} else if p, ok = net.peers[m.toPeer]; !ok {
		return fmt.Errorf("core: %v addressed to unknown peer %q", m.typ, m.toPeer)
	}
	net.charge(1, m.fromPeer != p.ID)
	if m.nodeAddressed {
		switch m.typ {
		case msgPeerJoin:
			return net.handlePeerJoin(p, n, m)
		case msgDataInsertion:
			return net.handleDataInsertion(p, n, m)
		}
		return fmt.Errorf("core: node-addressed %v unexpected", m.typ)
	}
	switch m.typ {
	case msgNewPredecessor:
		return net.handleNewPredecessor(p, m)
	}
	return fmt.Errorf("core: peer-addressed %v unexpected", m.typ)
}

// applyUpdateChild performs Algorithm 3's UpdateChild message on the
// node with key father, replacing old with new in its child set. It
// is executed synchronously and accounted as one message.
func (net *Network) applyUpdateChild(fromPeer keys.Key, father, old, new keys.Key) error {
	n, p, ok := net.NodeAt(father)
	if !ok {
		return fmt.Errorf("core: UpdateChild to absent node %q", father)
	}
	net.charge(1, p.ID != fromPeer)
	n.removeChild(old)
	n.addChild(new, net.nodes[new])
	return nil
}

// routeSearchingHost performs the host search of Algorithm 3 lines
// 3.32-3.37 synchronously: starting at node `at`, descend to the
// greatest child strictly below the key being placed until no such
// child exists, then hand the node to the local peer (placeNode
// finishes with the peer-level walk to the true owner). Each hop is
// accounted as one message.
func (net *Network) routeSearchingHost(fromPeer keys.Key, at keys.Key, info NodeInfo) error {
	cur := Child{Key: at}
	from := fromPeer
	for {
		n, p, ok := net.Follow(cur)
		if !ok {
			return fmt.Errorf("core: SearchingHost routed to absent node %q", cur.Key)
		}
		net.charge(1, p.ID != from)
		q, ok := n.MaxChildAtMost(info.Key, false)
		if !ok {
			net.linkNode(net.hostNode(info, p.ID))
			return nil
		}
		cur = q
		from = p.ID
	}
}
