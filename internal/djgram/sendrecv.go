package djgram

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netevent"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// closedSchemeTo decides the recording scheme for a datagram destination or
// source. Multicast groups are treated as DJVM peers in closed and mixed
// worlds (point-to-multiple-points extension of the closed-world scheme,
// §4.2); everything is open-scheme in the open world.
func (e *Env) closedSchemeTo(host string) bool {
	if e.vm.World() == ids.OpenWorld {
		return false
	}
	if e.vm.World() == ids.ClosedWorld {
		return true
	}
	// Mixed world: multicast groups use the closed scheme; plain hosts
	// follow the configured peer set.
	return e.net.IsGroup(host) || e.vm.IsDJVMPeer(host)
}

// SendTo sends one application datagram to addr — DatagramSocket.send
// (§4.2.1). The send is a critical event; in the closed scheme the
// DGnetworkEventId ⟨dJVMId, dJVMgc⟩ of the event is appended to the data
// segment (splitting the datagram when it no longer fits, §4.2.2). Replay
// re-sends over the reliable rudp layer; open-scheme sends are verified
// against the log and not re-sent (§5).
func (ds *DatagramSocket) SendTo(t *core.Thread, addr netsim.Addr, data []byte) error {
	e := ds.env
	if e.vm.Mode() == ids.Passthrough {
		return ds.sock.SendTo(addr, data)
	}
	ev := netevent.Begin(t, obs.KindDatagram, "send")
	if ds.openReplay || !e.closedSchemeTo(addr.Host) {
		return ev.OpenWrite(data, func() error { return ds.sock.SendTo(addr, data) })
	}
	return ev.Do(nil, func(gc ids.GCount) error {
		// The replayed schedule gives this send the same global counter as
		// in the record phase, so the datagram id is identical on the wire.
		dgID := ids.DGNetworkEventID{VM: e.vm.ID(), GC: gc}
		frames, err := splitFrames(data, dgID, e.payloadBudget())
		for i := 0; err == nil && i < len(frames); i++ {
			if ds.rc != nil {
				err = ds.rc.SendTo(e.net, addr, frames[i])
			} else {
				err = ds.sock.SendTo(addr, frames[i])
			}
		}
		return err
	})
}

// splitFrames encodes an application datagram into one wire frame, or two
// (front/rear) when payload plus meta data exceeds the budget (§4.2.2).
func splitFrames(data []byte, dgID ids.DGNetworkEventID, budget int) ([][]byte, error) {
	if len(data) <= budget {
		return [][]byte{encodeTrailer(data, dgID, portionWhole)}, nil
	}
	if len(data) > 2*budget {
		return nil, fmt.Errorf("%w: %d bytes exceeds two-way split budget %d", ErrTooLarge, len(data), 2*budget)
	}
	front := encodeTrailer(data[:budget], dgID, portionFront)
	rear := encodeTrailer(data[budget:], dgID, portionRear)
	return [][]byte{front, rear}, nil
}

// Receive blocks until one application datagram is deliverable and returns
// its payload and source — DatagramSocket.receive (§4.2.1).
//
// Record phase: the raw receive happens outside the GC-critical section;
// split datagrams are recombined; the delivery is logged into the
// RecordedDatagramLog as ⟨ReceiverGCounter, datagramId⟩ at the mark
// (§4.2.2). Datagrams from non-DJVM sources are recorded in full (§5).
//
// Replay phase: arriving (reliable, possibly out-of-order) datagrams are
// buffered; each receive event delivers exactly the datagram id recorded for
// it, honoring record-phase duplications (a duplicated datagram stays
// buffered until delivered the recorded number of times) and ignoring
// datagrams that were not delivered during record (§4.2.3).
func (ds *DatagramSocket) Receive(t *core.Thread) ([]byte, netsim.Addr, error) {
	e := ds.env
	if e.vm.Mode() == ids.Passthrough {
		pkt, err := ds.sock.Receive()
		return pkt.Data, pkt.Source, err
	}

	ev := netevent.Begin(t, obs.KindDatagram, "receive")
	var (
		data   []byte
		source netsim.Addr
	)
	if ev.Recording() {
		var (
			dgID   ids.DGNetworkEventID
			isOpen bool
		)
		err := ev.Record(func() (err error) {
			data, source, dgID, isOpen, err = ds.nextDatagram()
			return err
		}, func(gc ids.GCount) error {
			if isOpen {
				e.vm.Logs().Network.Append(&tracelog.OpenDatagramEntry{
					EventID:    ev.ID,
					SourceHost: source.Host,
					SourcePort: source.Port,
					Data:       data,
				})
			} else {
				e.vm.Logs().Datagram.Append(&tracelog.DatagramRecvEntry{
					EventID:    ev.ID,
					ReceiverGC: gc,
					Datagram:   dgID,
				})
			}
			return nil
		})
		return data, source, err
	}

	// Replay. A datagram recorded from a non-DJVM source is delivered with
	// the recorded data, not with the real network (§5).
	row, open := e.vm.NetworkIndex().OpenDatagrams.Get(ev.ID)
	want, closedSc := e.vm.DatagramIndex().ByEvent.Get(ev.ID)
	err := ev.Replay(open || closedSc, open, func() (err error) {
		data, source, err = ds.awaitDatagram(want.Datagram)
		return err
	}, nil)
	if err != nil {
		return nil, netsim.Addr{}, err
	}
	if open {
		// The recorded datagram leaves the log here, into a fresh slice.
		if data, source.Host, source.Port, err = e.vm.NetworkIndex().Content(ev.ID, row, nil); err != nil {
			return nil, netsim.Addr{}, fmt.Errorf("%w: %w", ErrDiverged, err)
		}
	}
	return data, source, nil
}

// nextDatagram is the record-phase raw receive: it blocks until one whole
// application datagram has arrived, recombining split ones, and reports the
// datagram id its sender gave it — or isOpen, for a datagram from a non-DJVM
// source, which carries none.
func (ds *DatagramSocket) nextDatagram() (data []byte, source netsim.Addr, id ids.DGNetworkEventID, isOpen bool, _ error) {
	for {
		pkt, err := ds.sock.Receive()
		if err != nil {
			return nil, netsim.Addr{}, id, false, err
		}
		if !ds.env.closedSchemeTo(pkt.Source.Host) {
			return pkt.Data, pkt.Source, id, true, nil
		}
		payload, dgID, portion, err := decodeTrailer(pkt.Data)
		if err != nil {
			return nil, pkt.Source, dgID, false, err
		}
		if portion == portionWhole {
			return payload, pkt.Source, dgID, false, nil
		}
		if complete, ok := ds.reassemble(dgID, portion, payload); ok {
			return complete, pkt.Source, dgID, false, nil
		}
		// Half of a split datagram: keep waiting for its counterpart.
	}
}

// reassemble stores one half of a split datagram and reports the combined
// payload once both halves are present (§4.2.2). Safe for concurrent
// record-phase receivers.
func (ds *DatagramSocket) reassemble(dgID ids.DGNetworkEventID, portion byte, payload []byte) ([]byte, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	p := ds.reasm[dgID]
	if p == nil {
		p = &partial{}
		ds.reasm[dgID] = p
	}
	if portion == portionFront {
		p.front, p.haveFront = payload, true
	} else {
		p.rear, p.haveRear = payload, true
	}
	if !p.haveFront || !p.haveRear {
		return nil, false
	}
	delete(ds.reasm, dgID)
	combined := make([]byte, 0, len(p.front)+len(p.rear))
	combined = append(combined, p.front...)
	combined = append(combined, p.rear...)
	return combined, true
}

// awaitDatagram returns one delivery of the wanted datagram id, pulling from
// the pool or the reliable transport and buffering everything else.
func (ds *DatagramSocket) awaitDatagram(want ids.DGNetworkEventID) ([]byte, netsim.Addr, error) {
	e := ds.env
	for {
		ds.mu.Lock()
		if p := ds.pool[want]; p != nil {
			p.remaining--
			if p.remaining <= 0 {
				delete(ds.pool, want)
			}
			data := make([]byte, len(p.data))
			copy(data, p.data)
			src := p.source
			ds.mu.Unlock()
			return data, src, nil
		}
		ds.mu.Unlock()

		pkt, err := ds.rc.Receive()
		if err != nil {
			return nil, netsim.Addr{}, netevent.Divergef("waiting for datagram %v: %v", want, err)
		}
		payload, dgID, portion, derr := decodeTrailer(pkt.Data)
		if derr != nil {
			continue // stray non-DJVM frame; replay ignores it
		}
		if portion != portionWhole {
			complete, ok := ds.reassemble(dgID, portion, payload)
			if !ok {
				continue
			}
			payload = complete
		}
		deliveries := e.vm.DatagramIndex().Deliveries[dgID]
		if deliveries == 0 {
			// Delivered now but not during record (it was lost then):
			// "a datagram delivered during replay need be ignored if it was
			// not delivered during record" (§4.2.3).
			continue
		}
		ds.mu.Lock()
		if _, dup := ds.pool[dgID]; !dup {
			ds.pool[dgID] = &pooled{data: payload, source: pkt.Source, remaining: deliveries}
		}
		ds.mu.Unlock()
	}
}
