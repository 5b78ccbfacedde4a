package main

// Example pins the program's whole output: every number it prints comes
// from the deterministic simulated testbed.
func Example() {
	main()
	// Output:
	// base profile: 1-1 710.00MB@100.00MB/s on pentium-myrinet — t_d=20.823s, t_n=7.51s, t_c=2m2.794s
	//
	// ranked (replica, configuration) pairs:
	// -> national-archive   8 storage, 16 compute @ 40.00MB/s   predicted 13.447s
	//    national-archive   8 storage,  8 compute @ 40.00MB/s   predicted 20.899s
	//    campus-repository  2 storage, 16 compute @ 100.00MB/s  predicted 22.664s
	//    campus-repository  2 storage,  8 compute @ 100.00MB/s  predicted 30.116s
	//    campus-repository  2 storage,  2 compute @ 100.00MB/s  predicted 1m15.834s
	//
	// selected national-archive; predicted 13.447s, actual 13.602s
}
