package metrics

// driveTricky exercises the encoder's hard cases: fractional busy/util
// values (non-power-of-two bandwidths), CSV-quotable names (commas, quotes),
// and JSON-escaped names (HTML specials, backslash, control bytes).
func driveTricky(rec *Recorder) {
	link := newResource("odd-link", 3)
	dram := newResource("dram,0 \"x\"", 7)
	xbar := newResource("xb<&>\\\t1", 11)
	c := &fakeCache{}
	rec.Begin("cfg,with \"quotes\" <&>", "wl\nnewline")
	rec.AddResource("link", 0, link.Name(), link)
	rec.AddResource("dram", 1, dram.Name(), dram)
	rec.AddResource("xbar", 0, xbar.Name(), xbar)
	rec.AddCaches("l1", 0, []CacheCounters{c})
	rec.SetStateProbe(func() State { return State{LiveCTAs: 7, InFlightLoads: 0, InFlightStores: 5} })

	link.Reserve(0, 1000)
	dram.Reserve(3, 12345)
	xbar.Reserve(100, 7777)
	c.hits, c.acc = 13, 57
	rec.Tick(4099, 901)
	link.Reserve(4100, 31)
	c.hits, c.acc = 14, 99
	rec.KernelBoundary(9001, 1902)
	xbar.Reserve(9002, 5)
	rec.Tick(13101, 2905)
	rec.Finish(13103, 3001)
}
