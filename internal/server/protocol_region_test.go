package server

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

func regionCapture(region core.Region, priority bool) *Capture {
	return &Capture{
		APID:      5,
		ClientID:  12,
		Seq:       7,
		Timestamp: time.UnixMicro(1700000000123456).UTC(),
		Region:    region,
		Priority:  priority,
		Streams: [][]complex128{
			{complex(0.25, -0.5), complex(0.125, 1)},
			{complex(-0.75, 0.5), complex(1, -0.25)},
		},
	}
}

// regionBoxOff is where the first sub-header's region box starts.
const regionBoxOff = frameHeadSize + subHeadSize

// TestRegionRoundTrip: a sub-header carries the region and priority
// flag through encode/decode unchanged; a capture with neither has a
// zero flags byte and no region box.
func TestRegionRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		region   core.Region
		priority bool
	}{
		{"region", core.Region{Min: geom.Pt(2, 3), Max: geom.Pt(9.5, 7.25), Cell: 0.1}, false},
		{"region-default-cell", core.Region{Min: geom.Pt(-4, 0.5), Max: geom.Pt(6, 2)}, false},
		{"region-priority", core.Region{Min: geom.Pt(0.25, 0.25), Max: geom.Pt(1.5, 1.75)}, true},
		{"priority-only", core.Region{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := regionCapture(tc.region, tc.priority)
			caps := readFrame(t, mustFrame(t, []Capture{*in}))
			defer ReleaseAll(caps)
			out := &caps[0]
			if out.Region != tc.region {
				t.Fatalf("region round trip: got %+v, want %+v", out.Region, tc.region)
			}
			if out.Priority != tc.priority {
				t.Fatalf("priority round trip: got %v, want %v", out.Priority, tc.priority)
			}
			if out.APID != in.APID || out.ClientID != in.ClientID || out.Seq != in.Seq || !out.Timestamp.Equal(in.Timestamp) {
				t.Fatal("sub-header fields corrupted in round trip")
			}
		})
	}

	plain := regionCapture(core.Region{}, false)
	frame := mustFrame(t, []Capture{*plain})
	if got := frame[frameHeadSize+28]; got != 0 {
		t.Fatalf("plain capture carries flags %#x, want 0", got)
	}
	if got, want := len(frame), frameHeadSize+subHeadSize+4*2*2; got != want {
		t.Fatalf("plain capture encodes to %d bytes, want %d (no region box)", got, want)
	}
	caps := readFrame(t, frame)
	defer ReleaseAll(caps)
	if !caps[0].Region.IsZero() || caps[0].Priority {
		t.Fatal("plain capture decoded with region or priority set")
	}
}

// TestRegionDecodeRejectsMalformed: every degenerate, inverted, or
// non-finite region, a region flag on a zero box, and unknown flag bits
// are refused at decode with ErrBadRegion — the grouping backend never
// sees them.
func TestRegionDecodeRejectsMalformed(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	nan, inf := math.NaN(), math.Inf(1)
	bad := []core.Region{
		{Min: geom.Pt(nan, 3), Max: geom.Pt(9, 7)},
		{Min: geom.Pt(2, inf), Max: geom.Pt(9, 7)},
		{Min: geom.Pt(9, 7), Max: geom.Pt(2, 3)},
		{Min: geom.Pt(2, 3), Max: geom.Pt(2, 7)},
		{Min: geom.Pt(2, 3), Max: geom.Pt(9, 3)},
		{Min: geom.Pt(2, 3), Max: geom.Pt(9, 7), Cell: nan},
		{Min: geom.Pt(2, 3), Max: geom.Pt(9, 7), Cell: -0.5},
		{Min: geom.Pt(2, 3), Max: geom.Pt(9, 7), Cell: 1e-6},
		{Min: geom.Pt(-2e9, 3), Max: geom.Pt(9, 7)},
	}
	// Writers validate too: a malformed region never leaves the AP.
	for i, r := range bad {
		if _, err := AppendBatch(nil, []Capture{*regionCapture(r, false)}); !errors.Is(err, ErrBadRegion) {
			t.Errorf("case %d: AppendBatch err = %v, want ErrBadRegion", i, err)
		}
	}
	// And readers reject the same boxes when hostile bytes put them on
	// the wire anyway.
	template := mustFrame(t, []Capture{*regionCapture(core.Region{Min: geom.Pt(2, 3), Max: geom.Pt(9, 7)}, false)})
	var hostile [][]byte
	for _, r := range bad {
		hostile = append(hostile, putRegion(template, regionBoxOff, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y, r.Cell))
	}
	unknownFlags := append([]byte(nil), template...)
	unknownFlags[frameHeadSize+28] |= 0x80
	hostile = append(hostile, putRegion(template, regionBoxOff, 0, 0, 0, 0, 0), unknownFlags)
	for i, frame := range hostile {
		ws := GetIngestWorkspace()
		if _, err := ReadFrameInto(bytes.NewReader(frame), ws); !errors.Is(err, ErrBadRegion) {
			t.Errorf("case %d: ReadFrameInto err = %v, want ErrBadRegion", i, err)
		}
		ws.Discard()
		ws = GetIngestWorkspace()
		if _, err := DecodeDatagramInto(frame, ws); !errors.Is(err, ErrBadRegion) {
			t.Errorf("case %d: DecodeDatagramInto err = %v, want ErrBadRegion", i, err)
		}
		ws.Discard()
		// ServeConn must reject the stream without panicking.
		b := NewBackend(1000, time.Second, func(uint32, []Capture) {})
		if err := b.ServeConn(bytes.NewReader(frame)); !errors.Is(err, ErrBadRegion) {
			t.Errorf("case %d: ServeConn err = %v, want ErrBadRegion", i, err)
		}
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}
