package main

// Example pins the program's whole output: every number it prints comes
// from the deterministic simulated testbed.
func Example() {
	main()
	// Output:
	// == bandwidth estimation
	//   campus     b̂ = 95.00MB/s, latency 2ms
	//   wide-area  b̂ = 11.00MB/s, latency 40ms
	//
	// == assumption checks (healthy cluster)
	//   all scaling assumptions hold
	//
	// == assumption checks (contended repository)
	//   WARNING storage-scaling: t_d scaled by 0.70 from 1 to 2 storage nodes, want 0.50 — repository throughput is not scaling; consider more conservative resource choices
	//
	// == event-layer phase decomposition (kmeans, 2-4, 256 MB)
	//   retrieval     4.775s
	//   delivery      1.485s
	//   local-reduce  50.44s
	//   gather        361ms
	//   global-reduce 461ms
	//   sync          300ms
	//   broadcast     361ms
	//   trace totals  t_d=4.775s t_n=1.485s t_c=51.923s (reconciles with profile: true)
}
