#include "textflag.h"

// func curg() uintptr
TEXT ·curg(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
