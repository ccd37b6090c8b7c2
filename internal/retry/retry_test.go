package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// recordingSleep captures every delay the policy schedules without actually
// sleeping.
func recordingSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		*delays = append(*delays, d)
		return nil
	}
}

func TestDoSucceedsFirstTry(t *testing.T) {
	var delays []time.Duration
	p := Policy{Sleep: recordingSleep(&delays)}
	attempts, err := p.Do(context.Background(), "k", func(context.Context) error { return nil })
	if err != nil || attempts != 1 {
		t.Fatalf("attempts=%d err=%v, want 1 nil", attempts, err)
	}
	if len(delays) != 0 {
		t.Errorf("slept %v on success", delays)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, Sleep: recordingSleep(&delays)}
	calls := 0
	attempts, err := p.Do(context.Background(), "k", func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("attempts=%d err=%v, want 3 nil", attempts, err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 3, Sleep: recordingSleep(&delays)}
	boom := errors.New("boom")
	attempts, err := p.Do(context.Background(), "k", func(context.Context) error { return boom })
	if !errors.Is(err, boom) || attempts != 3 {
		t.Fatalf("attempts=%d err=%v, want 3 boom", attempts, err)
	}
	if len(delays) != 2 { // no sleep after the final attempt
		t.Errorf("slept %d times, want 2", len(delays))
	}
}

func TestDoNegativeMaxAttemptsDisablesRetries(t *testing.T) {
	p := Policy{MaxAttempts: -1, Sleep: recordingSleep(new([]time.Duration))}
	attempts, err := p.Do(context.Background(), "k", func(context.Context) error { return errors.New("x") })
	if attempts != 1 || err == nil {
		t.Fatalf("attempts=%d err=%v, want a single failed attempt", attempts, err)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	p := Policy{MaxAttempts: 5, Sleep: recordingSleep(new([]time.Duration))}
	boom := errors.New("gone")
	attempts, err := p.Do(context.Background(), "k", func(context.Context) error { return Permanent(boom) })
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
	if !errors.Is(err, boom) || !IsPermanent(err) {
		t.Fatalf("err = %v, want permanent-wrapped boom", err)
	}
}

func TestDoHonorsRetryAfter(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Sleep: recordingSleep(&delays)}
	hint := 700 * time.Millisecond
	p.Do(context.Background(), "k", func(context.Context) error {
		return WithRetryAfter(errors.New("429"), hint)
	})
	if len(delays) != 1 || delays[0] < hint {
		t.Fatalf("delays = %v, want one delay >= %s", delays, hint)
	}
}

func TestDoCapsRetryAfterAtMaxDelay(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Second, Sleep: recordingSleep(&delays)}
	p.Do(context.Background(), "k", func(context.Context) error {
		return WithRetryAfter(errors.New("429"), time.Hour)
	})
	if len(delays) != 1 || delays[0] != 2*time.Second {
		t.Fatalf("delays = %v, want one delay of MaxDelay 2s", delays)
	}
}

func TestDoCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{}
	attempts, err := p.Do(ctx, "k", func(context.Context) error { return nil })
	if attempts != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("attempts=%d err=%v, want 0 canceled", attempts, err)
	}
}

func TestDoStopsRetryingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond}
	attempts, err := p.Do(ctx, "k", func(context.Context) error {
		calls++
		cancel()
		return errors.New("fail during cancel")
	})
	if attempts != 1 || calls != 1 {
		t.Fatalf("attempts=%d calls=%d, want 1/1 after cancel", attempts, calls)
	}
	if err == nil {
		t.Fatal("want an error")
	}
}

func TestDelayDeterministicAndGrowing(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.Delay("url", attempt)
		d2 := p.Delay("url", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %s vs %s — jitter not deterministic", attempt, d1, d2)
		}
		if d1 <= 0 || d1 > time.Second+time.Second/2 {
			t.Fatalf("attempt %d: delay %s out of range", attempt, d1)
		}
	}
	// The schedule doubles up to MaxDelay (10, 20, 40, 60, 60 ms) and each
	// delay is spread by at most ±50%; these are the jittered delays of
	// seed 0, key "k".
	capped := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond}
	exp := []time.Duration{10, 20, 40, 60, 60}
	want := []time.Duration{9497338, 12019891, 26231235, 48618342, 55600889}
	for i, w := range want {
		got := capped.Delay("k", i+1)
		if got != w {
			t.Errorf("attempt %d: delay = %s, want %s", i+1, got, w)
		}
		if e := exp[i] * time.Millisecond; got < e/2 || got > e+e/2 {
			t.Errorf("attempt %d: delay %s outside ±50%% of %s", i+1, got, e)
		}
	}
}

func TestDelayDiffersAcrossSeeds(t *testing.T) {
	a := Policy{Seed: 1}.Delay("url", 1)
	b := Policy{Seed: 2}.Delay("url", 1)
	if a == b {
		t.Errorf("seeds 1 and 2 produced identical jitter %s", a)
	}
}

func TestRetryAfterHintAbsent(t *testing.T) {
	if _, ok := RetryAfterHint(errors.New("plain")); ok {
		t.Error("hint found on a plain error")
	}
	if Permanent(nil) != nil || WithRetryAfter(nil, time.Second) != nil {
		t.Error("nil error not passed through")
	}
}

func TestDoBreakerOpenWaitsWithoutConsumingBudget(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	br := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, Clock: clock})
	// Trip it.
	release, _ := br.Allow()
	release(true)
	if br.State() != Open {
		t.Fatalf("state = %s, want open", br.State())
	}

	// While open, Do must wait (advancing the clock past the cooldown on
	// each simulated sleep) and then succeed on its FIRST counted attempt.
	p := Policy{
		MaxAttempts: 1,
		Breaker:     br,
		Sleep: func(ctx context.Context, d time.Duration) error {
			now = now.Add(d)
			return nil
		},
	}
	attempts, err := p.Do(context.Background(), "k", func(context.Context) error { return nil })
	if err != nil || attempts != 1 {
		t.Fatalf("attempts=%d err=%v, want 1 nil (breaker wait must not consume budget)", attempts, err)
	}
	if br.State() != Closed {
		t.Errorf("state = %s after successful probe, want closed", br.State())
	}
}

func TestDoBreakerIntegrationEndToEnd(t *testing.T) {
	// Real clock, tiny cooldown: 6 consecutive failures trip the breaker;
	// later calls must still complete once the upstream recovers.
	br := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Millisecond})
	p := Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Breaker: br}
	for i := 0; i < 3; i++ {
		p.Do(context.Background(), fmt.Sprint(i), func(context.Context) error { return errors.New("down") })
	}
	if br.Trips() == 0 {
		t.Fatal("breaker never tripped")
	}
	attempts, err := p.Do(context.Background(), "recovered", func(context.Context) error { return nil })
	if err != nil || attempts != 1 {
		t.Fatalf("attempts=%d err=%v after recovery, want 1 nil", attempts, err)
	}
}
