// IDL pipeline: define a brand-new service in SuperGlue IDL, compile it,
// inspect the derived model, and run it — declarative recovery for an
// interface the rest of this repository has never seen.
//
//	go run ./examples/idlpipeline
package main

import (
	"fmt"
	"os"
	"strings"

	"superglue/internal/codegen"
	"superglue/internal/core"
	"superglue/internal/idl"
	"superglue/internal/kernel"
)

// counterIDL specifies a tiny counter service: counters are created with a
// tracked start value (the desc_data parameter shares the "value" name, so
// it seeds the tracked field), bumped by ctr_incr (whose return value
// accumulates into the tracked total, like the filesystem offset), and
// restored after a crash by replaying ctr_alloc + ctr_set. That is
// everything SuperGlue needs to recover it.
const counterIDL = `
service_global_info = { desc_has_parent = solo, desc_has_data = true };

sm_creation(ctr_alloc);
sm_terminal(ctr_free);
sm_update(ctr_incr);
sm_restore(ctr_set);
sm_update(ctr_set);
sm_transition(ctr_alloc, ctr_incr);
sm_transition(ctr_alloc, ctr_set);
sm_transition(ctr_alloc, ctr_free);

desc_data_retval(long, ctrid)
ctr_alloc(desc_data(componentid_t compid), desc_data(long value));

desc_data_retval_acc(long, value)
ctr_incr(componentid_t compid, desc(long ctrid), long by);

long ctr_set(desc(long ctrid), desc_data(long value));
int  ctr_free(desc(long ctrid));
`

// counterServer is the ~40-line implementation; note there is not one line
// of recovery logic in it.
type counterServer struct {
	next kernel.Word
	vals map[kernel.Word]kernel.Word
}

func (c *counterServer) Name() string { return "counter" }

func (c *counterServer) Init(bc *kernel.BootContext) error {
	c.vals = make(map[kernel.Word]kernel.Word)
	c.next = kernel.Word(bc.Epoch) << 20
	return nil
}

func (c *counterServer) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	switch fn {
	case "ctr_alloc":
		c.next++
		c.vals[c.next] = args[1] // start value
		return c.next, nil
	case "ctr_incr":
		if _, ok := c.vals[args[1]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		c.vals[args[1]] += args[2]
		return args[2], nil
	case "ctr_set":
		if _, ok := c.vals[args[0]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		c.vals[args[0]] = args[1]
		return args[1], nil
	case "ctr_free":
		if _, ok := c.vals[args[0]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		delete(c.vals, args[0])
		return 0, nil
	default:
		return 0, kernel.DispatchError("counter", fn)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "idlpipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Compile the IDL.
	spec, err := idl.Parse("counter", counterIDL)
	if err != nil {
		return err
	}
	fmt.Printf("parsed %d interface functions; derived mechanisms: %v\n",
		len(spec.Funcs), spec.Mechanisms())
	sm, err := core.NewStateMachine(spec)
	if err != nil {
		return err
	}
	walk, err := sm.RecoveryWalk("ctr_alloc", core.StateInitial)
	if err != nil {
		return err
	}
	fmt.Printf("precomputed recovery walk: %v (recreate, then restore the tracked value)\n\n", walk)

	// 2. Generate the typed client (what `sgc` writes to disk).
	ir, err := codegen.NewIR(spec)
	if err != nil {
		return err
	}
	files, err := codegen.Generate(ir)
	if err != nil {
		return err
	}
	client := files[codegen.ClientFile]
	fmt.Printf("generated a %d-line typed client from %d lines of IDL; it starts:\n",
		strings.Count(client, "\n"), strings.Count(counterIDL, "\n"))
	for i, line := range strings.SplitN(client, "\n", 12) {
		if i >= 10 {
			break
		}
		fmt.Println("  |", line)
	}
	fmt.Println()

	// 3. Run the service through the recovery engine and crash it.
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		return err
	}
	comp, err := sys.RegisterServer(spec, func() kernel.Service { return &counterServer{} })
	if err != nil {
		return err
	}
	app, err := sys.NewClient("app")
	if err != nil {
		return err
	}
	stub, err := app.Stub(comp)
	if err != nil {
		return err
	}
	if _, err := sys.Kernel().CreateThread(nil, "main", 10, func(t *kernel.Thread) {
		id, err := stub.Call(t, "ctr_alloc", kernel.Word(app.ID()), 100)
		if err != nil {
			fmt.Println("alloc:", err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := stub.Call(t, "ctr_incr", kernel.Word(app.ID()), id, 7); err != nil {
				fmt.Println("incr:", err)
				return
			}
		}
		fmt.Println("counter at 100 + 5×7 = 135; crashing the component...")
		if err := sys.Kernel().FailComponent(comp); err != nil {
			fmt.Println("inject:", err)
			return
		}
		// The next increment recovers the counter: the walk replays
		// ctr_alloc (start=100) and ctr_set with the tracked value (135).
		if _, err := stub.Call(t, "ctr_incr", kernel.Word(app.ID()), id, 7); err != nil {
			fmt.Println("incr after fault:", err)
			return
		}
		d, _ := stub.Descriptor(core.DescKey{ID: id})
		value, _ := d.DataValue("value")
		fmt.Printf("recovered across the crash: tracked value = %d (want 142)\n", value)
		if value != 142 {
			fmt.Println("MISMATCH")
			os.Exit(1)
		}
	}); err != nil {
		return err
	}
	return sys.Kernel().Run()
}
