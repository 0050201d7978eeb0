package des

import "testing"

// FuzzQueueEquivalence cross-checks the flat queue against the reference
// kernel on fuzzer-derived programs of schedule/cancel/run/step/stream/
// reset operations.
// Times are quantized to quarter-units over a small range so equal
// timestamps — the FIFO tie-break — dominate the search space.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 1, 1, 2, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 3, 2, 40})
	f.Add([]byte{0, 9, 1, 0, 0, 9, 2, 12, 0, 3, 2, 60})
	f.Add([]byte{0, 8, 1, 0, 5, 3, 4, 9, 8, 3, 6, 3, 12, 5, 4, 4, 6, 5, 1, 0, 3, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeEquivProgram(data)
		if len(ops) == 0 {
			t.Skip()
		}
		checkEquivProgram(t, ops)
	})
}

// decodeEquivProgram turns fuzz bytes into an equivalence program.  The
// encoding is positional: an op code byte followed by its operand bytes;
// truncated trailing operands default to zero.
func decodeEquivProgram(data []byte) []equivOp {
	const maxOps = 256
	var ops []equivOp
	next := func(i *int) byte {
		if *i >= len(data) {
			return 0
		}
		b := data[*i]
		*i++
		return b
	}
	scheduled := 0
	for i := 0; i < len(data) && len(ops) < maxOps; {
		switch next(&i) % 7 {
		case 0, 1: // schedule (weighted double so programs have substance)
			op := equivOp{
				kind:     opSchedule,
				at:       float64(next(&i)%64) / 4,
				cancelAt: -1,
			}
			if c := next(&i); c%4 == 0 && scheduled > 0 {
				op.cancelAt = int(c) % scheduled
			}
			if s := next(&i); s%3 == 0 {
				op.spawn = float64(s%16) / 4
			}
			ops = append(ops, op)
			scheduled++
		case 2:
			ops = append(ops, equivOp{kind: opCancel, target: int(next(&i)) % (scheduled + 3)})
		case 3:
			ops = append(ops, equivOp{kind: opRun, at: float64(next(&i)%80) / 4})
		case 4:
			ops = append(ops, equivOp{kind: opStep})
		case 5: // stream: a length byte, then a time and a behaviour byte per event
			op := equivOp{kind: opStream}
			for k := next(&i) % 8; k > 0; k-- {
				e := equivOp{kind: opSchedule, at: float64(next(&i)%64) / 4, cancelAt: -1}
				if b := next(&i); b%5 == 0 && scheduled > 0 {
					e.cancelAt = int(b) % scheduled
				} else if b%5 == 1 {
					e.spawn = float64(b%16) / 4
				}
				op.stream = append(op.stream, e)
				scheduled++
			}
			ops = append(ops, op)
		case 6:
			if next(&i)%4 == 0 {
				ops = append(ops, equivOp{kind: opReset})
			}
		}
	}
	return ops
}
