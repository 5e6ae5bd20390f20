package main

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"

	"ormprof/internal/serve"
)

// TestTapAckAccounting pushes a short session through the tap and checks
// that the tap's cursor equals the client's own FramesAcked, and that
// the Acks plus the Bye cover every frame exactly once.
func TestTapAckAccounting(t *testing.T) {
	buf, sites, err := generate("197.parser", 1)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := cutFrames(buf.Events)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(ln, serve.Config{
		CheckpointDir:   filepath.Join(dir, "ckpt"),
		OutputDir:       filepath.Join(dir, "out"),
		CheckpointEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	rec := newTracer()
	tap := newSessionTap("s", rec)
	stats, err := serve.Push(context.Background(), serve.ClientConfig{
		Dial: tap.dial(ln.Addr().String()), SessionID: "s", Workload: "197.parser", Sites: sites,
	}, frames)
	tap.finish()
	if err != nil {
		t.Fatal(err)
	}
	if int(tap.acked) != stats.FramesAcked {
		t.Fatalf("tap cursor %d, ClientStats.FramesAcked %d", tap.acked, stats.FramesAcked)
	}
	covered := tap.byeCover
	for _, n := range tap.ackCover {
		covered += n
	}
	if covered != len(frames) {
		t.Fatalf("Acks and Bye cover %d frames, pushed %d", covered, len(frames))
	}
	if len(tap.ackLatMS) != len(tap.ackCover) || len(tap.ackCover) < len(frames)/8-1 {
		t.Fatalf("%d latency samples for %d Acks over %d frames", len(tap.ackLatMS), len(tap.ackCover), len(frames))
	}
	var frameSpans int
	for _, s := range rec.snapshot() {
		if s.Name == "client.frame" {
			frameSpans++
		}
	}
	if frameSpans != len(frames) {
		t.Fatalf("%d frame spans for %d frames", frameSpans, len(frames))
	}
}

// TestMsgParserSplitWrites feeds the same message stream whole and one
// byte at a time; both must yield the same messages.
func TestMsgParserSplitWrites(t *testing.T) {
	var stream bytes.Buffer
	stream.WriteString(serve.ProtoMagic)
	msgs := []struct {
		typ  byte
		body []byte
	}{
		{byte(serve.MsgHello), []byte("hello")},
		{msgFrame, append([]byte{0xac, 0x02}, bytes.Repeat([]byte{7}, 300)...)}, // index 300
		{byte(serve.MsgDone), []byte{0x05}},
		{msgFrame, []byte{0x00}},
	}
	for _, m := range msgs {
		stream.WriteByte(m.typ)
		n := len(m.body)
		for n >= 0x80 {
			stream.WriteByte(byte(n) | 0x80)
			n >>= 7
		}
		stream.WriteByte(byte(n))
		stream.Write(m.body)
	}
	collect := func(chunk int) []string {
		var out []string
		p := msgParser{preamble: len(serve.ProtoMagic)}
		b := stream.Bytes()
		for i := 0; i < len(b); i += chunk {
			p.feed(b[i:min(i+chunk, len(b))], func(typ byte, head []byte) {
				out = append(out, string(append([]byte{typ}, head...)))
			})
		}
		return out
	}
	whole, split := collect(stream.Len()), collect(1)
	if len(whole) != len(msgs) {
		t.Fatalf("parsed %d messages, wrote %d", len(whole), len(msgs))
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("message %d: whole %q, split %q", i, whole[i], split[i])
		}
	}
	if head := whole[1][1:]; head[0] != 0xac || head[1] != 0x02 || len(head) != 10 {
		t.Fatalf("frame head %x", head)
	}
}
