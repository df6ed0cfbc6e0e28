package core

import "errors"

// Transport is the medium-dependent half of a driver: how dispatches
// leave, how evaluations are answered, and how the next arrival is
// awaited. Everything else — the command switch, the virtual clock,
// stall detection — is Drive's, so every executor runs the same loop
// and drivers differ only in how a reply arrives.
type Transport interface {
	// Send ships a run of consecutive dispatches. Replies ready at once
	// come back in dispatch order and Drive hands them to the
	// coordinator; replies that arrive later come out of Wait.
	Send(ds []Dispatch) ([]Reply, error)
	// Evaluate answers one Evaluate command.
	Evaluate(v Evaluate) (EvalResult, error)
	// Wait blocks for the next arrival or worker event, delivers it to
	// the coordinator, and returns the commands that emitted. ok is
	// false when nothing is in flight that could ever arrive.
	Wait() (cmds []Command, ok bool, err error)
}

// clocked is implemented by the in-process transports that run on a
// virtual clock; Drive charges evaluations and round critical paths to
// it and keeps the coordinator's mirror in sync.
type clocked interface{ clock() *vtimer }

// lossObserver is implemented by transports that can measure the
// global training loss (the in-process simulator, for adaptive-μ).
type lossObserver interface {
	observeLoss(params []float64) float64
}

// Drive executes cmds — the result of coord.Start or coord.Resume —
// and every command the coordinator emits after them, in emission
// order, until the coordinator emits Pause or Done, which it returns.
// Consecutive Dispatches are shipped to t as one batch.
func Drive(coord *Coordinator, cmds []Command, t Transport) (end Command, err error) {
	var vt *vtimer
	if c, ok := t.(clocked); ok {
		vt = c.clock()
	}
	for {
		var next []Command
		for i := 0; i < len(cmds); i++ {
			var more []Command
			switch v := cmds[i].(type) {
			case Dispatch:
				batch := []Dispatch{v}
				for i+1 < len(cmds) {
					d, ok := cmds[i+1].(Dispatch)
					if !ok {
						break
					}
					batch = append(batch, d)
					i++
				}
				replies, err := t.Send(batch)
				if err != nil {
					return nil, err
				}
				for _, r := range replies {
					m, err := coord.HandleReply(r)
					if err != nil {
						return nil, err
					}
					more = append(more, m...)
				}
			case Evaluate:
				if vt != nil && !vt.localEval {
					// Eval traffic is charged on the virtual clock too, so
					// eval cadence affects deadlines consistently with the
					// analytic byte accounting.
					vt.chargeEval(v.WireBytes)
					coord.Tick(vt.eng.Now())
				}
				res, err := t.Evaluate(v)
				if err != nil {
					return nil, err
				}
				if more, err = coord.EvalDone(res); err != nil {
					return nil, err
				}
			case ObserveLoss:
				lo, ok := t.(lossObserver)
				if !ok {
					return nil, errors.New("core: this transport cannot observe losses")
				}
				if more, err = coord.LossObserved(lo.observeLoss(v.Params)); err != nil {
					return nil, err
				}
			case AdvanceClock:
				if vt != nil {
					vt.eng.Advance(v.Seconds)
					coord.Tick(vt.eng.Now())
				}
			case Pause, Done:
				return v, nil
			}
			// Checkpoint is informational: the coordinator already saved.
			next = append(next, more...)
		}
		if len(next) == 0 {
			more, ok, err := t.Wait()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, errors.New("core: coordinator stalled with nothing in flight")
			}
			next = more
		}
		cmds = next
	}
}
