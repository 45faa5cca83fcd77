//go:build poolpoison

package data

func init() { poisonRelease = true }
