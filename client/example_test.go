package client_test

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/wire"
	"pacman/internal/workload"
)

// ExampleDial runs a pacmand server on a unix socket and drives it through
// the client: Dial, one Submit waited on for its durable result, one
// pipelined batch of Submits, graceful shutdown.
func ExampleDial() {
	spec := workload.Spec(workload.NewBank(8))
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
	db, err := pacman.Launch(bp, pacman.Options{Logging: pacman.CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		panic(err)
	}
	srv := wire.NewServer(wire.ServerConfig{Workers: 2})
	if err := srv.Attach(db); err != nil {
		panic(err)
	}
	sock := filepath.Join(os.TempDir(), fmt.Sprintf("pacmand-example-%d.sock", os.Getpid()))
	defer os.Remove(sock)
	if _, err := srv.Listen("unix", sock); err != nil {
		panic(err)
	}

	c, err := client.Dial("unix", sock, client.Config{Window: 16})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// Wait blocks for the Result frame: executed AND durable on the server.
	ts, err := c.Submit("Deposit", pacman.Args{pacman.A(pacman.I(3)), pacman.A(pacman.I(25)), pacman.A(pacman.I(1))}).Wait()
	fmt.Println("durable:", err == nil && ts != 0)

	// Submit pipelines: all four ride the connection concurrently, each
	// future resolving when its epoch is released — order not guaranteed.
	var futs []*client.Future
	for i := int64(1); i <= 4; i++ {
		futs = append(futs, c.Submit("Deposit", pacman.Args{pacman.A(pacman.I(i)), pacman.A(pacman.I(1)), pacman.A(pacman.I(1))}))
	}
	allDurable := true
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			allDurable = false
		}
	}
	fmt.Println("batch durable:", allDurable)

	srv.Drain(5 * time.Second) // settle in-flight work, announce GoAway, close
	db.Close()
	// Output:
	// durable: true
	// batch durable: true
}
