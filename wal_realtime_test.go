package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRealtimeLogWALBacksDiskWrites covers the WALDir plumbing end to
// end: a ReplicatedLog with a WAL directory appends promises and votes
// through the write-ahead log, the cluster backs every append with a
// real O_SYNC file per ring member, and the files grow with the modeled
// byte volume. Wall-clock timing is noisy, so assertions check growth
// and wiring, never absolute sizes.
func TestRealtimeLogWALBacksDiskWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~1s of wall-clock cluster time with synchronous file writes")
	}
	dir := t.TempDir()
	c := NewCluster(7)
	var probe int
	log := NewReplicatedLog(c, LogConfig{
		Nodes:  []NodeID{1, 2, 3},
		WALDir: dir,
		Deliver: func(node NodeID, _ int64, _ Value) {
			if node == 1 {
				probe++
			}
		},
	})
	c.Start()
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		log.Propose(NodeID(i%3+1), Value{ID: ValueID(i + 1), Bytes: 64})
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	c.Stop()
	if err := c.WALError(); err != nil {
		t.Fatalf("WAL write error: %v", err)
	}
	if probe == 0 {
		t.Fatal("no deliveries: the log never made progress")
	}
	var appends, bytes int64
	for _, id := range []NodeID{1, 2, 3} {
		l := log.Agent(id).Log
		appends += l.Appends()
		bytes += l.Bytes()
	}
	if appends == 0 || bytes == 0 {
		t.Fatalf("write-ahead logs saw no appends (appends=%d bytes=%d)", appends, bytes)
	}
	var fileBytes int64
	for _, id := range []NodeID{1, 2, 3} {
		st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%d.wal", id)))
		if err != nil {
			t.Fatalf("ring member %d has no WAL file: %v", id, err)
		}
		if st.Size() == 0 {
			t.Fatalf("node-%d.wal is empty", id)
		}
		fileBytes += st.Size()
	}
	// Every modeled append was backed by a real write of the same size.
	if fileBytes != bytes {
		t.Fatalf("files hold %d bytes, logs modeled %d", fileBytes, bytes)
	}
}
