package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stagedb/internal/value"
)

// The files under testdata are byte streams recorded off a loopback socket
// at the last commit that wrote every frame with two Writes (header, then
// payload) — see internal/server's TestWireWriteCounts for the scenario that
// produced them. They pin the stream: however frames are batched into
// writes, these are the bytes a peer must see.

func golden(t *testing.T, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// TestGoldenFramesReencode parses each recorded stream and re-frames it both
// ways the code now frames — coalesced into one buffer with
// BeginFrame/EndFrame, and frame by frame with WriteFrame — expecting the
// recorded bytes back.
func TestGoldenFramesReencode(t *testing.T) {
	for _, name := range []string{"point_select.query.hex", "point_select.response.hex", "stream3.response.hex"} {
		want := golden(t, name)
		var coalesced []byte
		var single bytes.Buffer
		var ends []int
		r := bytes.NewReader(want)
		for r.Len() > 0 {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			start := len(coalesced)
			coalesced = append(BeginFrame(coalesced, typ), payload...)
			if err := EndFrame(coalesced, start); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(&single, typ, payload); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, len(coalesced))
		}
		if !bytes.Equal(coalesced, want) {
			t.Errorf("%s: BeginFrame/EndFrame stream differs\n got %x\nwant %x", name, coalesced, want)
		}
		if !bytes.Equal(single.Bytes(), want) {
			t.Errorf("%s: WriteFrame stream differs\n got %x\nwant %x", name, single.Bytes(), want)
		}
		// FrameEnd finds, for a write that stopped after n bytes, where the
		// frame it stopped in ends.
		frame := 0
		for n := 0; n <= len(want); n++ {
			if frame < len(ends) && n > ends[frame] {
				frame++
			}
			wantEnd := 0
			if n > 0 {
				wantEnd = ends[frame]
			}
			if got := FrameEnd(want, n); got != wantEnd {
				t.Fatalf("%s: FrameEnd(%d) = %d, want %d", name, n, got, wantEnd)
			}
		}
	}
}

// TestGoldenPointSelectEncoders builds the point select's exchange from
// values with the payload encoders and expects the recorded bytes.
func TestGoldenPointSelectEncoders(t *testing.T) {
	q := Query{SQL: "SELECT bal FROM acct WHERE id = ?", Args: value.Row{value.NewInt(7)}}
	query := q.Append(BeginFrame(nil, MsgQuery))
	if err := EndFrame(query, 0); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "point_select.query.hex"); !bytes.Equal(query, want) {
		t.Errorf("query frame\n got %x\nwant %x", query, want)
	}

	var resp []byte
	for _, f := range []struct {
		typ    byte
		append func([]byte) []byte
	}{
		{MsgColumns, func(b []byte) []byte { return AppendColumns(b, []string{"bal"}) }},
		{MsgPage, func(b []byte) []byte { return AppendPage(b, []value.Row{{value.NewInt(70)}}) }},
		{MsgDone, Done{}.Append},
	} {
		start := len(resp)
		resp = f.append(BeginFrame(resp, f.typ))
		if err := EndFrame(resp, start); err != nil {
			t.Fatal(err)
		}
	}
	if want := golden(t, "point_select.response.hex"); !bytes.Equal(resp, want) {
		t.Errorf("response frames\n got %x\nwant %x", resp, want)
	}
}
