//go:build race

package features_test

func init() { raceEnabled = true }
