//go:build race

package diff_test

func init() { raceEnabled = true }
