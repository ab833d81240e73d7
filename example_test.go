package pacman_test

import (
	"fmt"
	"time"

	"pacman"
	"pacman/internal/workload"
)

// exampleBlueprint declares the paper's bank catalog (Figures 2 and 4)
// through the prebuilt workload: account i starts with 10*i in Current.
func exampleBlueprint() pacman.Blueprint {
	spec := workload.Spec(workload.NewBank(8))
	return pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
}

// ExampleLaunch boots a blueprint under command logging and commits one
// durable transaction through a Frontend.
func ExampleLaunch() {
	db, err := pacman.Launch(exampleBlueprint(), pacman.Options{
		Logging:       pacman.CommandLogging, // the zero value is NoLogging: not recoverable
		EpochInterval: time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	fe := db.MustFrontend(pacman.FrontendConfig{Workers: 2})
	defer fe.Close()

	// Deposit(name=3, amount=25, nation=1): Wait blocks for the durable ack.
	ts, err := fe.Submit("Deposit", pacman.Args{pacman.A(pacman.I(3)), pacman.A(pacman.I(25)), pacman.A(pacman.I(1))}).Wait()
	fmt.Println("durable:", err == nil && ts != 0)

	row, _ := db.Table("Current").GetRow(3)
	fmt.Println("balance:", row.LatestData()[1].Int())
	// Output:
	// durable: true
	// balance: 55
}

// ExampleRestart crashes a logged instance and brings it back on the same
// devices: the recovered incarnation has the committed state and serves
// immediately.
func ExampleRestart() {
	bp := exampleBlueprint()
	db, err := pacman.Launch(bp, pacman.Options{Logging: pacman.CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		panic(err)
	}
	fe := db.MustFrontend(pacman.FrontendConfig{Workers: 2})
	if _, err := fe.Submit("Deposit", pacman.Args{pacman.A(pacman.I(4)), pacman.A(pacman.I(60)), pacman.A(pacman.I(1))}).Wait(); err != nil {
		panic(err)
	}
	fe.Close()
	db.Crash() // power failure: devices freeze at their durable prefix

	// Restart validates bp against the on-device manifest, replays the log
	// (command logging -> the CLR-P scheme), and returns a serving instance.
	db2, res, err := pacman.Restart(db.Devices(), bp, pacman.RecoverConfig{})
	if err != nil {
		panic(err)
	}
	defer db2.Close()
	fmt.Println("replayed:", res.Entries)

	row, _ := db2.Table("Current").GetRow(4)
	fmt.Println("recovered balance:", row.LatestData()[1].Int())

	// The recovered incarnation serves new work immediately.
	fe2 := db2.MustFrontend(pacman.FrontendConfig{Workers: 2})
	defer fe2.Close()
	_, err = fe2.Submit("Deposit", pacman.Args{pacman.A(pacman.I(4)), pacman.A(pacman.I(1)), pacman.A(pacman.I(1))}).Wait()
	fmt.Println("serving:", err == nil)
	// Output:
	// replayed: 1
	// recovered balance: 100
	// serving: true
}

// ExampleFrontend_Submit shows the two moments of epoch group commit:
// Submit returns a future at execution, and the future resolves at
// durable epoch release.
func ExampleFrontend_Submit() {
	db, err := pacman.Launch(exampleBlueprint(), pacman.Options{Logging: pacman.CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	fe := db.MustFrontend(pacman.FrontendConfig{Workers: 2})
	defer fe.Close()

	fut := fe.Submit("Transfer", pacman.Args{pacman.A(pacman.I(1)), pacman.A(pacman.I(5))})
	ts, err := fut.Wait() // blocks until the commit's epoch is durable
	fmt.Println("durable:", err == nil && ts != 0)
	fmt.Println("epoch assigned:", fut.Epoch() != 0)
	// Output:
	// durable: true
	// epoch assigned: true
}
