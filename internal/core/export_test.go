package core

import (
	"fmt"
	"reflect"
)

// CheckReplicaStore is the replica oracle the schedule tests hold a
// network to right after a replication tick: every live node's replica
// sits on its host's ring successor and deep-equals infoOf(n); no other
// replica exists unless its key was lost to a crash that is not
// recovered yet; and the replicas held number exactly the location
// index's entries.
func CheckReplicaStore(net *Network) error {
	held := 0
	for id, p := range net.peers {
		for k := range p.Replicas {
			held++
			if !net.HasNode(k) && !net.pendingLost[k] {
				return fmt.Errorf("replica of %q on %q: no such node, and none lost to a crash", k, id)
			}
		}
	}
	if held != len(net.replicaLoc) {
		return fmt.Errorf("%d replicas held, %d indexed", held, len(net.replicaLoc))
	}
	for _, n := range net.nodeList {
		succ, _ := net.ring.Successor(n.host.ID)
		if loc, ok := net.replicaLoc[n.Key]; !ok || loc != succ {
			return fmt.Errorf("replica of %q (host %q) indexed on %q, want successor %q", n.Key, n.host.ID, loc, succ)
		}
		got, ok := net.peers[succ].Replicas[n.Key]
		if !ok {
			return fmt.Errorf("node %q has no replica on successor %q", n.Key, succ)
		}
		if want := infoOf(n); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("replica of %q is stale:\n  got  %+v\n  want %+v", n.Key, got, want)
		}
	}
	return nil
}
