package main

// Example pins the program's whole output: every number it prints comes
// from the deterministic simulated testbed.
func Example() {
	main()
	// Output:
	// base profile on pentium-myrinet: T_exec 36.999s
	// scaling factors Pentium -> Opteron: s_d=0.386 s_n=0.888 s_c=0.282
	//
	// predictions on the Opteron cluster (never profiled there):
	//   1-1  predicted 43.162s    actual 47.533s    error  9.20%
	//   2-4  predicted 11.879s    actual 12.985s    error  8.51%
	//   4-4  predicted 10.875s    actual 11.99s     error  9.30%
	//   4-16 predicted 3.709s     actual 3.96s      error  6.34%
	//   8-16 predicted 3.207s     actual 3.463s     error  7.39%
}
