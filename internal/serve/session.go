package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"ormprof/internal/checkpoint"
	"ormprof/internal/tracefmt"
)

// sessionItem is one unit of work handed from a session's reader
// goroutine to its worker: a frame, a Done marker, or a terminal error.
type sessionItem struct {
	mt    MsgType
	index uint64 // frame index, or total frame count for Done
	frame []byte
	err   error
}

// readLoop is the session's reader goroutine: it pulls messages off the
// socket and pushes them into the bounded items channel. When the
// channel is full the send blocks, the reader stops draining the
// socket, and TCP flow control pushes back on the client — a slow
// pipeline costs the sender throughput, never the server memory.
// Each read carries the idle deadline, so a stalled client surfaces as
// a timeout error rather than a wedged goroutine.
func (s *Server) readLoop(conn net.Conn, br *bufio.Reader, items chan<- sessionItem) {
	defer close(items)
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		mt, body, err := readMsg(br)
		if err != nil {
			items <- sessionItem{err: err}
			return
		}
		switch mt {
		case MsgFrame:
			idx, frame, err := decodeFrameMsg(body)
			if err != nil {
				items <- sessionItem{err: err}
				return
			}
			s.queuedBytes.Add(int64(len(frame)))
			items <- sessionItem{mt: mt, index: idx, frame: frame}
		case MsgDone:
			total, err := parseUvarintBody(mt, body)
			if err != nil {
				items <- sessionItem{err: err}
				return
			}
			items <- sessionItem{mt: mt, index: total}
			return
		default:
			items <- sessionItem{err: protof("unexpected %s from client", mt)}
			return
		}
	}
}

// sendMsg writes one message with a write deadline, so a client that
// stops reading cannot wedge the worker.
func (s *Server) sendMsg(conn net.Conn, bw *bufio.Writer, t MsgType, body []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
	if err := writeMsg(bw, t, body); err != nil {
		return err
	}
	return bw.Flush()
}

// checkpointAndAck durably saves the session's state, then acknowledges
// the covered cursor. Ordering is the protocol's core invariant: the
// Ack goes out only after the rename that commits the checkpoint, so a
// crash can never leave the client believing in progress the server
// lost.
func (s *Server) checkpointAndAck(conn net.Conn, bw *bufio.Writer, st *sessionState) bool {
	if !s.saveCheckpoint(st) {
		return false
	}
	return s.sendMsg(conn, bw, MsgAck, binary.AppendUvarint(nil, st.acked)) == nil
}

// saveCheckpoint persists the session state without acknowledging
// (used when parking a session whose connection is already gone).
func (s *Server) saveCheckpoint(st *sessionState) bool {
	ck, err := st.pl.state(st.id)
	if err != nil {
		s.cfg.Logf("session %s: snapshot failed: %v", st.id, err)
		return false
	}
	if err := checkpoint.Save(checkpoint.PathFor(s.cfg.CheckpointDir, st.id), ck); err != nil {
		s.cfg.Logf("session %s: checkpoint failed: %v", st.id, err)
		return false
	}
	st.acked = st.pl.framesApplied
	st.dirty = false
	return true
}

// runSession is the session worker: it applies frames in order,
// checkpoints on the frame-count and interval cadences, and settles the
// session (complete, park, or discard) when the stream ends.
func (s *Server) runSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, st *sessionState) {
	items := make(chan sessionItem, s.cfg.QueueFrames)
	go s.readLoop(conn, br, items)
	defer func() {
		// Unblock and drain the reader before returning, keeping the
		// queued-bytes ledger exact; handleConn's defer re-closes the
		// conn harmlessly.
		conn.Close()
		for it := range items {
			if it.frame != nil {
				s.queuedBytes.Add(-int64(len(it.frame)))
			}
		}
	}()

	park := func() {
		// Order matters: the checkpoint file is the client's reconnect
		// signal, so the session must already read as parting (see
		// resolveSession) by the time the file is visible.
		s.markParting(st)
		if st.dirty {
			s.saveCheckpoint(st)
		}
	}
	ticker := time.NewTicker(s.cfg.CheckpointInterval)
	defer ticker.Stop()
	drainCh := s.drainCh
	for {
		select {
		case <-s.killCh:
			// Crash simulation: drop everything not already durable.
			return
		case <-drainCh:
			// Graceful shutdown: keep applying what the client sends —
			// Shutdown force-closes the connection if the deadline
			// passes — but only react to the closure once.
			drainCh = nil
		case <-ticker.C:
			if st.dirty && !s.checkpointAndAck(conn, bw, st) {
				park()
				return
			}
		case it, ok := <-items:
			if !ok {
				// Reader finished without a terminal item: connection
				// gone. Park for reconnect.
				park()
				return
			}
			if it.err != nil {
				if errors.Is(it.err, ErrProtocol) {
					s.sendMsg(conn, bw, MsgErr, []byte(it.err.Error()))
				}
				s.cfg.Logf("session %s: connection ended: %v", st.id, it.err)
				park()
				return
			}
			switch it.mt {
			case MsgFrame:
				s.queuedBytes.Add(-int64(len(it.frame)))
				if !s.applySessionFrame(conn, bw, st, it) {
					park()
					return
				}
			case MsgDone:
				s.finishSession(conn, bw, st, it.index)
				return
			}
		}
	}
}

// applySessionFrame handles one Frame message. Frames below the cursor
// are duplicates from a resend after reconnect and are skipped; frames
// above it mean the client and server disagree about history, which is
// terminal for the connection (the client re-syncs via Welcome).
func (s *Server) applySessionFrame(conn net.Conn, bw *bufio.Writer, st *sessionState, it sessionItem) bool {
	switch {
	case it.index < st.pl.framesApplied:
		return true
	case it.index > st.pl.framesApplied:
		s.sendMsg(conn, bw, MsgErr,
			[]byte(fmt.Sprintf("frame gap: got %d, expected %d", it.index, st.pl.framesApplied)))
		return false
	}
	events, err := tracefmt.DecodeFrameInto(st.evbuf[:0], it.frame)
	if err != nil {
		// The frame was damaged in transit; the connection is suspect.
		// Drop it — the client re-sends from the durable cursor.
		s.sendMsg(conn, bw, MsgErr, []byte(fmt.Sprintf("frame %d: %v", it.index, err)))
		return false
	}
	// Frame boundary: honor a pending load-shedding request before
	// applying more events (only this worker may touch the ladder).
	if st.stepReq.Swap(false) {
		if st.pl.lad.ForceStep() {
			s.cfg.Logf("session %s: stepped down to %s (global budget)", st.id, st.pl.lad.Rung())
		}
	}
	st.pl.applyFrame(events)
	st.evbuf = events // keep the grown buffer for the next frame
	st.dirty = true
	s.enforceGlobal(st)
	if st.pl.framesApplied-st.acked >= uint64(s.cfg.CheckpointEvery) {
		return s.checkpointAndAck(conn, bw, st)
	}
	return true
}

// finishSession handles Done: verify the counts line up, flush the
// final profiles, say Bye, and retire the session and its checkpoint.
func (s *Server) finishSession(conn net.Conn, bw *bufio.Writer, st *sessionState, total uint64) {
	if total != st.pl.framesApplied {
		s.sendMsg(conn, bw, MsgErr,
			[]byte(fmt.Sprintf("done at %d but %d frames applied", total, st.pl.framesApplied)))
		if st.dirty {
			s.saveCheckpoint(st)
		}
		return
	}
	if err := st.pl.writeProfiles(s.cfg.OutputDir); err != nil {
		s.cfg.Logf("session %s: %v", st.id, err)
		s.sendMsg(conn, bw, MsgErr, []byte("profile flush failed"))
		return
	}
	// The final state must be durable before the Bye: the merge plane
	// reads these .final states, and a Bye the client saw must imply the
	// cluster report will include the session — the same checkpoint-
	// before-ack discipline, applied to completion.
	if s.cfg.FinalDir != "" {
		ck, err := st.pl.state(st.id)
		if err == nil {
			err = checkpoint.Save(checkpoint.FinalPathFor(s.cfg.FinalDir, st.id), ck)
		}
		if err != nil {
			s.cfg.Logf("session %s: final state: %v", st.id, err)
			s.sendMsg(conn, bw, MsgErr, []byte("final state flush failed"))
			return
		}
	}
	s.sendMsg(conn, bw, MsgBye, binary.AppendUvarint(nil, st.pl.framesApplied))
	s.cfg.Logf("session %s: complete (%d frames, %d events)", st.id, st.pl.framesApplied, st.pl.eventsApplied)
	s.complete(st)
}
