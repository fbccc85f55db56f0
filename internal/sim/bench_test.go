package sim

import "testing"

// BenchmarkScheduleRun measures event-kernel throughput: schedule and
// drain 1024 events per iteration.
func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for k := 0; k < 1024; k++ {
			s.Schedule(float64(k%37), "e", func(*Simulator) {})
		}
		s.RunUntilIdle()
	}
}

// BenchmarkWheelCascade drains 65536 events spread over five decades of
// virtual time per op, so events land on the calendar queue's upper
// levels and pay the full cascade path down — the worst case for the
// wheel, where the old heap's O(log n) was its best.
func BenchmarkWheelCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for k := 0; k < 65536; k++ {
			at := float64(k%97) * float64(1+k%11) * float64(1+k%1009) * 0.001
			s.Schedule(at, "e", func(*Simulator) {})
		}
		s.RunUntilIdle()
	}
}

// BenchmarkCancelHeavy schedules 4096 events and cancels every other one
// before draining — the chaos layer's pattern (failure windows cancel a
// replica's whole in-flight group), exercising unlink and the handle
// generation counters.
func BenchmarkCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		hs := make([]Handle, 4096)
		for k := range hs {
			hs[k] = s.Schedule(float64(k%613)*0.01, "e", func(*Simulator) {})
		}
		for k := 0; k < len(hs); k += 2 {
			s.Cancel(hs[k])
		}
		s.RunUntilIdle()
	}
}
