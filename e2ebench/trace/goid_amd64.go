package trace

// curg returns the address of the calling goroutine's runtime descriptor:
// constant for the goroutine's life and distinct from every other live
// goroutine's, which is all the per-goroutine span stacks need.
func curg() uintptr
