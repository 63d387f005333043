package trace

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// counterFieldNames returns the names of every atomic.Int64 field of
// Counters — the set the Snapshot struct must mirror, field for field and
// in the same order (Counters.Snapshot and Snapshot.Add walk both by index).
func counterFieldNames(t *testing.T) []string {
	t.Helper()
	ct := reflect.TypeOf(Counters{})
	atomicInt64 := reflect.TypeOf(atomic.Int64{})
	var names []string
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type != atomicInt64 {
			t.Fatalf("Counters.%s is %s; every counter must be an atomic.Int64", f.Name, f.Type)
		}
		names = append(names, f.Name)
	}
	return names
}

// TestSnapshotCoversEveryCounter catches the drift bug this package
// invites: adding a counter to Counters but not to its Snapshot mirror, or
// in another position. The Snapshot struct must declare exactly the
// counter fields, and Counters.Snapshot must load each into its namesake.
func TestSnapshotCoversEveryCounter(t *testing.T) {
	names := counterFieldNames(t)

	st := reflect.TypeOf(Snapshot{})
	snapFields := map[string]bool{}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Snapshot.%s is %s, want int64", f.Name, f.Type)
		}
		snapFields[f.Name] = true
	}
	for _, n := range names {
		if !snapFields[n] {
			t.Errorf("Counters.%s has no Snapshot field", n)
		}
		delete(snapFields, n)
	}
	for n := range snapFields {
		t.Errorf("Snapshot.%s has no Counters field", n)
	}

	// Behavioral half: give every counter a distinct value and check it
	// survives into the snapshot — a Snapshot() missing one Load line
	// passes the structural check above but fails here.
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i, n := range names {
		cv.FieldByName(n).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	sv := reflect.ValueOf(c.Snapshot())
	for i, n := range names {
		if got := sv.FieldByName(n).Int(); got != int64(i+1) {
			t.Errorf("Snapshot().%s = %d, want %d (Counters.Snapshot drifted)", n, got, i+1)
		}
	}
}

// TestAddCoversEveryCounter checks the aggregation: Snapshot.Add must
// accumulate every field — as a sum, except the high-water marks
// (IsGauge), which aggregate as a max.
func TestAddCoversEveryCounter(t *testing.T) {
	names := counterFieldNames(t)

	var src Snapshot
	srcv := reflect.ValueOf(&src).Elem()
	for i, n := range names {
		srcv.FieldByName(n).SetInt(int64(i + 1))
	}
	var total Snapshot
	total.Add(src)
	total.Add(src)
	tv := reflect.ValueOf(total)
	for i, n := range names {
		want := int64(2 * (i + 1))
		if IsGauge(n) {
			want = int64(i + 1) // max of two equal observations
		}
		if got := tv.FieldByName(n).Int(); got != want {
			t.Errorf("after two Adds, %s = %d, want %d (Snapshot.Add drifted)", n, got, want)
		}
	}
}
