package serve

// The cluster admin channel (ORMA/1). Topology changes — add a shard,
// remove a shard, replicate the routing table to a standby — ride a
// separate listener from ingest, so admin traffic can never be confused
// with a session and a firewalled deployment can expose the two planes
// differently. The protocol deliberately reuses ORMP/1's message framing
// (type byte + uvarint length + body): one framing implementation, two
// preambles.
//
// A connection starts with the 5-byte preamble "ORMA" + version (1).
// Commands and replies:
//
//	AdminStatus      → AdminTable (the router's full ORMRTAB v2 bytes)
//	AdminAddShard    (uvarint epoch + string addr) → AdminOK (uvarint new
//	                 epoch) or AdminErr
//	AdminRemoveShard (uvarint epoch + string addr) → AdminOK or AdminErr
//	AdminPull        (uvarint have-epoch) → AdminTable
//	AdminPush        (ORMRTAB v2 bytes) → AdminOK (uvarint epoch) or
//	                 AdminErr
//
// Every mutating command carries the epoch the sender believes current.
// The receiver applies it only when that epoch matches (add/remove) or is
// not older (push); otherwise it answers AdminErr carrying a
// *StaleEpochError. Compare-and-swap on the epoch is what makes the admin
// plane idempotent under retries and safe under concurrent operators: a
// duplicate or raced command sees the epoch it helped create and is
// refused instead of applied twice.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"ormprof/internal/checkpoint"
	"ormprof/internal/codec"
)

// AdminMagic is the admin-connection preamble: protocol name + version.
const AdminMagic = "ORMA\x01"

// Admin message types. They share MsgType's framing but live on their own
// listener; the two byte spaces never meet on one connection.
const (
	AdminStatus      MsgType = 0x01
	AdminAddShard    MsgType = 0x02
	AdminRemoveShard MsgType = 0x03
	AdminPull        MsgType = 0x04
	AdminPush        MsgType = 0x05

	AdminOK    MsgType = 0x10
	AdminTable MsgType = 0x11
	AdminErr   MsgType = 0x1F
)

// adminErrStaleEpoch is the AdminErr code for an epoch CAS failure; code
// 0 is a generic failure.
const adminErrStaleEpoch = 1

// StaleEpochError reports an admin command or replicated table built
// against a topology the receiver has already moved past (or, for
// add/remove, one it has not reached). The command was not applied.
type StaleEpochError struct {
	Have uint64 // the receiver's current ring epoch
	Got  uint64 // the epoch the sender presented
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("serve: stale ring epoch %d (current epoch is %d)", e.Got, e.Have)
}

// encodeAdminErr builds an AdminErr body: code, have-epoch, got-epoch,
// then the message text.
func encodeAdminErr(err error) []byte {
	var code, have, got uint64
	if se, ok := err.(*StaleEpochError); ok {
		code, have, got = adminErrStaleEpoch, se.Have, se.Got
	}
	b := binary.AppendUvarint(nil, code)
	b = binary.AppendUvarint(b, have)
	b = binary.AppendUvarint(b, got)
	return codec.AppendString(b, err.Error())
}

// decodeAdminErr reverses encodeAdminErr, resurrecting the typed
// *StaleEpochError when the code says so.
func decodeAdminErr(body []byte) error {
	c := codec.NewCursor(body)
	code, have, got := c.Uvarint(), c.Uvarint(), c.Uvarint()
	msg := c.String(4096)
	if err := c.Err(); err != nil {
		return protof("AdminErr body: %v", err)
	}
	if code == adminErrStaleEpoch {
		return &StaleEpochError{Have: have, Got: got}
	}
	return fmt.Errorf("serve: admin: %s", msg)
}

// encodeShardCmd builds an AdminAddShard/AdminRemoveShard body.
func encodeShardCmd(epoch uint64, addr string) []byte {
	return codec.AppendString(binary.AppendUvarint(nil, epoch), addr)
}

func decodeShardCmd(body []byte) (epoch uint64, addr string, err error) {
	c := codec.NewCursor(body)
	epoch, addr = c.Uvarint(), c.String(MaxAddrHintLen)
	if err := c.End(); err != nil {
		return 0, "", protof("shard command: %v", err)
	}
	if addr == "" {
		return 0, "", protof("shard command with empty address")
	}
	return epoch, addr, nil
}

// ServeAdmin accepts admin connections on ln until it closes. Run it in
// its own goroutine next to Serve; the listener is registered with the
// router, so Shutdown and Kill close it along with the ingest listener.
func (r *Router) ServeAdmin(ln net.Listener) error {
	r.mu.Lock()
	if r.draining || r.killed {
		r.mu.Unlock()
		ln.Close()
		return nil
	}
	r.adminLn = ln
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			closing := r.draining || r.killed
			r.mu.Unlock()
			if closing {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		r.mu.Lock()
		if r.draining || r.killed {
			r.mu.Unlock()
			conn.Close()
			continue
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.dropConn(conn)
			r.handleAdmin(conn)
		}()
	}
}

// handleAdmin runs one admin connection: preamble, then a command loop
// until the peer hangs up. Each command gets exactly one reply.
func (r *Router) handleAdmin(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.SetReadDeadline(time.Now().Add(r.cfg.HelloTimeout))
	magic := make([]byte, len(AdminMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != AdminMagic {
		return
	}
	reply := func(t MsgType, body []byte) bool {
		conn.SetWriteDeadline(time.Now().Add(r.cfg.HelloTimeout))
		if err := writeMsg(bw, t, body); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	for {
		conn.SetReadDeadline(time.Now().Add(r.cfg.HelloTimeout))
		mt, body, err := readMsg(br)
		if err != nil {
			return
		}
		switch mt {
		case AdminStatus, AdminPull:
			// Pull carries the peer's epoch; the reply is the full table
			// either way — the puller applies it only if newer, so there
			// is nothing to gate here.
			out, err := checkpoint.EncodeRouterTable(r.State())
			if err != nil {
				reply(AdminErr, encodeAdminErr(err))
				return
			}
			if !reply(AdminTable, out) {
				return
			}
		case AdminAddShard, AdminRemoveShard:
			epoch, addr, derr := decodeShardCmd(body)
			if derr != nil {
				reply(AdminErr, encodeAdminErr(derr))
				return
			}
			var newEpoch uint64
			if mt == AdminAddShard {
				newEpoch, err = r.AddShard(epoch, addr)
			} else {
				newEpoch, err = r.RemoveShard(epoch, addr)
			}
			if err != nil {
				if !reply(AdminErr, encodeAdminErr(err)) {
					return
				}
				continue
			}
			if !reply(AdminOK, binary.AppendUvarint(nil, newEpoch)) {
				return
			}
		case AdminPush:
			st, derr := checkpoint.DecodeRouterTable("admin-push", body)
			if derr != nil {
				reply(AdminErr, encodeAdminErr(derr))
				return
			}
			if aerr := r.ApplyTable(st); aerr != nil {
				if !reply(AdminErr, encodeAdminErr(aerr)) {
					return
				}
				continue
			}
			if !reply(AdminOK, binary.AppendUvarint(nil, st.Epoch)) {
				return
			}
		default:
			reply(AdminErr, encodeAdminErr(protof("unexpected admin message %#02x", byte(mt))))
			return
		}
	}
}

// --- Admin client helpers (ormpd -ctl, and router-to-router replication) ---

// adminConn is one admin client connection.
type adminConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	tmo  time.Duration
}

func dialAdmin(addr string, timeout time.Duration) (*adminConn, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("serve: admin dial %s: %w", addr, err)
	}
	c := &adminConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), tmo: timeout}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := c.bw.WriteString(AdminMagic); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *adminConn) close() { c.conn.Close() }

// roundTrip sends one command and returns the body of the expected
// reply; an AdminErr reply becomes its typed error.
func (c *adminConn) roundTrip(t MsgType, body []byte, want MsgType) ([]byte, error) {
	c.conn.SetWriteDeadline(time.Now().Add(c.tmo))
	if err := writeMsg(c.bw, t, body); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(time.Now().Add(c.tmo))
	mt, reply, err := readMsg(c.br)
	if err != nil {
		return nil, err
	}
	if mt == AdminErr {
		return nil, decodeAdminErr(reply)
	}
	if mt != want {
		return nil, protof("unexpected admin reply %#02x", byte(mt))
	}
	return reply, nil
}

// AdminFetchTable asks the router at addr for its current table.
func AdminFetchTable(addr string, timeout time.Duration) (*checkpoint.RouterState, error) {
	c, err := dialAdmin(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.close()
	body, err := c.roundTrip(AdminStatus, nil, AdminTable)
	if err != nil {
		return nil, err
	}
	return checkpoint.DecodeRouterTable("admin:"+addr, body)
}

// AdminShardCmd sends add-shard or remove-shard (add selects which) to
// the router at addr, presenting epoch for the CAS. It returns the new
// epoch on success; a *StaleEpochError means the command was refused.
func AdminShardCmd(addr string, add bool, epoch uint64, shard string, timeout time.Duration) (uint64, error) {
	c, err := dialAdmin(addr, timeout)
	if err != nil {
		return 0, err
	}
	defer c.close()
	t := AdminRemoveShard
	if add {
		t = AdminAddShard
	}
	body, err := c.roundTrip(t, encodeShardCmd(epoch, shard), AdminOK)
	if err != nil {
		return 0, err
	}
	return parseUvarintBody(AdminOK, body)
}

// AdminPushTable pushes a full table to the router at addr. The receiver
// applies it unless it is older than what it holds (*StaleEpochError).
func AdminPushTable(addr string, st *checkpoint.RouterState, timeout time.Duration) error {
	out, err := checkpoint.EncodeRouterTable(st)
	if err != nil {
		return err
	}
	c, err := dialAdmin(addr, timeout)
	if err != nil {
		return err
	}
	defer c.close()
	_, err = c.roundTrip(AdminPush, out, AdminOK)
	return err
}

// AdminPullTable fetches the table from the router at addr, announcing
// the puller's own epoch (informational; the reply is unconditional).
func AdminPullTable(addr string, have uint64, timeout time.Duration) (*checkpoint.RouterState, error) {
	c, err := dialAdmin(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.close()
	body, err := c.roundTrip(AdminPull, binary.AppendUvarint(nil, have), AdminTable)
	if err != nil {
		return nil, err
	}
	return checkpoint.DecodeRouterTable("admin:"+addr, body)
}
