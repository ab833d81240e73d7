package pacman

import "testing"

// BenchmarkRestartPL times Restart of a physical-log crash image with a
// checkpoint and a torn tail, each iteration on a fresh clone of the image.
// Besides ns/op it reports the device bytes one Restart reads (read-B/op)
// next to the image's log and checkpoint sizes: tail repair is decided by
// the reload pass, so read-B/op stays at about log-B + ckpt-B rather than
// twice the log. The `make bench` target runs it.
//
//	go test -run='^$' -bench=BenchmarkRestartPL -benchtime=20x -benchmem
func BenchmarkRestartPL(b *testing.B) {
	const accounts = 40
	bp := bankBlueprint(accounts)
	image := tornPLImage(b, bp, 2000, accounts)
	var read int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		devs := make([]*Device, len(image))
		for j, dev := range image {
			devs[j] = dev.Clone()
		}
		b.StartTimer()
		db, _, err := Restart(devs, bp, RecoverConfig{Threads: 2})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for _, dev := range devs {
			read += dev.Stats().BytesRead
		}
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(read)/float64(b.N), "read-B/op")
	b.ReportMetric(float64(filesBytes(b, image, "log-")), "log-B")
	b.ReportMetric(float64(filesBytes(b, image, "ckpt-")), "ckpt-B")
}
