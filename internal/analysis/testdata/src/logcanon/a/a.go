// Package a is golden input for the logcanon analyzer: process-global print
// calls in a server/pipeline package, plus the calls that must stay silent
// (writer-explicit formatting, Sprintf, logger methods, shadowing names).
package a

import (
	"fmt"
	"log"
	"log/slog"
	"os"
)

func narrate(n int) {
	fmt.Println("processed", n)     // want `fmt\.Println bypasses the hub's structured logger`
	fmt.Printf("processed %d\n", n) // want `fmt\.Printf bypasses the hub's structured logger`
	fmt.Print("done\n")             // want `fmt\.Print bypasses the hub's structured logger`
	log.Println("processed", n)     // want `log\.Println bypasses the hub's structured logger`
	log.Printf("processed %d\n", n) // want `log\.Printf bypasses the hub's structured logger`
	log.Print("done\n")             // want `log\.Print bypasses the hub's structured logger`
}

func die(err error) {
	log.Fatal(err)                  // want `log\.Fatal bypasses the hub's structured logger`
	log.Fatalf("boom: %v", err)     // want `log\.Fatalf bypasses the hub's structured logger`
	log.Panicln("unreachable", err) // want `log\.Panicln bypasses the hub's structured logger`
}

// Writer-explicit and string-producing fmt calls are fine: nothing reaches a
// process-global stream behind the caller's back.
func allowedFmt(n int) string {
	fmt.Fprintf(os.Stderr, "explicit writer is allowed: %d\n", n)
	fmt.Fprintln(os.Stdout, "so is Fprintln")
	return fmt.Sprintf("n=%d", n)
}

// Methods on a *log.Logger instance are fine — an injected logger is exactly
// the dependency shape the canon wants (even better when it is a slog one).
func allowedLogger(l *log.Logger, s *slog.Logger) {
	l.Printf("instance logger: ok")
	l.Println("still ok")
	s.Info("structured", "key", "value")
}

// A method named Println on some other type is not fmt.Println.
type console struct{}

func (console) Println(...any) {}
func (console) Printf(string)  {}

func useConsole(c console) {
	c.Println("x")
	c.Printf("y")
}

// A local function shadowing the name is not log.Print either.
func shadowed() {
	Print := func(...any) {}
	Print("z")
}
